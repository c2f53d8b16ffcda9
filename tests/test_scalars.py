import random
import re

import pytest

from superalg.scalars import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    I,
    ZERO,
    common_denominator,
    conjugate_scalar,
    format_scalar,
    gaussian,
    parse_scalar,
    rational,
    real_imag,
)


def test_rational_normalization():
    x = rational(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert rational(0, 7) == 0


def test_gaussian_arithmetic():
    a = gaussian(rational(1, 2), rational(3, 4))
    b = gaussian(2, -1)
    assert a + b == gaussian(rational(5, 2), rational(-1, 4))
    assert a * I == gaussian(rational(-3, 4), rational(1, 2))
    assert (a * b) / b == a
    assert I * I == -1


def test_gaussian_mixes_with_rationals():
    a = gaussian(1, 1)
    assert 2 * a == gaussian(2, 2)
    assert a - rational(1, 2) == gaussian(rational(1, 2), 1)
    assert rational(1, 2) / gaussian(0, 1) == gaussian(0, rational(-1, 2))


def test_conjugation_involution_and_norm():
    rng = random.Random(7)
    for _ in range(25):
        z = FIELD_QI.random(rng)
        assert conjugate_scalar(conjugate_scalar(z)) == z
        n = z.norm()
        assert n >= 0
        assert (n == 0) == (not z)
        assert z * z.conjugate() == GaussianRational(n)


def test_hash_consistency_with_rationals():
    assert hash(gaussian(3, 0)) == hash(rational(3)) == hash(3)
    assert gaussian(rational(1, 3), 0) == rational(1, 3)


def test_format_parse_roundtrip():
    rng = random.Random(11)
    samples = [rational(0), rational(-7, 3), gaussian(0, 1), gaussian(rational(3, 5), rational(-4, 5))]
    samples += [FIELD_Q.random(rng) for _ in range(10)]
    samples += [FIELD_QI.random(rng) for _ in range(10)]
    for x in samples:
        s = format_scalar(x)
        y = parse_scalar(s)
        assert y == x, (s, x, y)


def test_parse_examples():
    assert parse_scalar("3/5+4/5*i") == gaussian(rational(3, 5), rational(4, 5))
    assert parse_scalar("-2") == rational(-2)
    assert parse_scalar("-1/2*i") == gaussian(0, rational(-1, 2))


@pytest.mark.parametrize("s", ["1/2/3", "1/0", "abc", "1+", "i*i", "--1"])
def test_parse_scalar_names_a_string_that_is_not_a_scalar(s):
    # these failed with an unpack error, ZeroDivisionError or an int-literal error
    with pytest.raises(ValueError, match=f"^not a scalar: {re.escape(repr(s))}$"):
        parse_scalar(s)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError, match="^division by zero Gaussian rational$"):
        gaussian(1, 2) / gaussian(0, 0)


def test_exact_parts_are_kept_not_copied():
    q = rational(3, 7)
    z = GaussianRational(q, q)
    assert z.re is q and z.im is q
    assert real_imag(q)[0] is q
    assert GaussianRational(2, 1).re == 2 and type(GaussianRational(2, 1).re) is type(ZERO)
    assert type(real_imag(5)[0]) is type(ZERO)


def test_common_denominator():
    assert common_denominator([]) == 1
    assert common_denominator([3, rational(1, 4), rational(5, 6)]) == 12
    assert common_denominator([gaussian(rational(1, 6), rational(3, 4)), rational(2, 9)]) == 36


def test_empty_scalar_strings_and_rebinding_raise():
    for s in ("", " "):
        with pytest.raises(ValueError, match="^empty scalar string$"):
            parse_scalar(s)
    z = gaussian(1, 2)
    with pytest.raises(AttributeError, match="^GaussianRational is immutable$"):
        z.re = rational(3)
    assert z == gaussian(1, 2)
