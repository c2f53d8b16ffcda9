import random
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import grassmann
from superalg.grassmann import (
    AutomorphismError,
    CanonicalIso,
    GrassmannElement,
    NormalizationError,
    RealStructure,
    all_subsets,
    make_real_structure,
    normalize_generators,
    random_real_structure,
    real_form_basis,
    rho_bar,
    rho_tr,
    structural_subspaces,
)
from superalg.linalg import row_space_basis
from superalg.scalars import ZERO, GaussianRational, I, as_gaussian, format_scalar, gaussian, parse_scalar, rational

from oracles import canonical_sha256, composed_iso_is_algebra_map, grassmann_linear_terms, grassmann_product


def th(n, *jk):
    out = GrassmannElement.one(n)
    for j in jk:
        out = out * GrassmannElement.generator(n, j)
    return out


def test_multiplication_signs():
    assert th(3, 0) * th(3, 1) == th(3, 0, 1)
    assert th(3, 1) * th(3, 0) == -th(3, 0, 1)
    assert not th(3, 1) * th(3, 1)


def test_unit_inverse_expansion():
    one = GrassmannElement.one(2)
    t1 = th(2, 0)
    assert (one + t1) * (one - t1) == one


def test_associativity_random():
    rng = random.Random(5)
    n = 3
    subsets = all_subsets(n)

    def rnd():
        return GrassmannElement(
            n, {rng.choice(subsets): gaussian(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)}
        )

    for _ in range(25):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)


def parse_element(n: int, text: str) -> GrassmannElement:
    """Inverse of str(): sums of (scalar)*th_i^th_j monomials."""
    out = GrassmannElement(n)
    for chunk in text.replace("- ", "+ -").split(" + "):
        chunk = chunk.strip()
        if not chunk or chunk == "0":
            continue
        if ")*" in chunk:
            coef_s, mono = chunk.split(")*", 1)
            coef = parse_scalar(coef_s.lstrip("("))
        else:
            coef, mono = gaussian(1), chunk
        if mono == "1":
            subset = ()
        else:
            subset = tuple(sorted(int(p[2:]) - 1 for p in mono.split("^")))
        out = out + GrassmannElement(n, {subset: as_gaussian(coef)})
    return out


def test_serialization_roundtrip():
    n = 3
    a = GrassmannElement(n, {(0, 2): gaussian(rational(3, 5), rational(4, 5)), (): gaussian(2)})
    s = str(a)
    assert "th1^th3" in s
    assert parse_element(n, s) == a


def test_rho_bar_canonical():
    rho = rho_bar(1)
    basis = real_form_basis(rho)
    assert len(basis) == 2
    # the canonical form is spanned by 1 and theta
    iso = CanonicalIso(rho)
    assert iso.check()
    ts = normalize_generators(rho)
    assert ts[0] == th(1, 0)


def test_rho_bar_rejects_non_unit_phase():
    with pytest.raises(ValueError, match="^phase 2 is not a unit$"):
        rho_bar(1, [gaussian(2)])


def test_rho_bar_needs_one_phase_per_generator():
    for phases in ([1], [1, 1, 5], [1, 1, 1]):
        with pytest.raises(ValueError, match="need 2 phases"):
            rho_bar(2, phases)
    assert rho_bar(2, [1, I]).validate() == []


def test_elements_on_different_generator_counts_do_not_mix():
    a, b = GrassmannElement.generator(2, 0), GrassmannElement.generator(3, 2)
    for op in (lambda: a * b, lambda: b * a, lambda: a + b, lambda: b - a):
        with pytest.raises(ValueError, match="generators in an operation on"):
            op()
    with pytest.raises(ValueError, match="on 3 generators in an operation on 2"):
        grassmann._combination(2, 1, [((1, 0), a), ((1, 0), b)])
    # maps on one generator used to read a's theta_1 as theirs (CanonicalIso
    # returned th1) or index past their images (a bare IndexError)
    for op in (
        lambda: CanonicalIso(rho_bar(1)).apply(a),
        lambda: rho_bar(1).apply(GrassmannElement.generator(2, 1)),
        lambda: rho_bar(3).apply(a),
        lambda: grassmann._GeneratorMap(3, [b, b, b]).image(a),
    ):
        with pytest.raises(ValueError, match="generators in an operation on"):
            op()
    # and two structures on different counts were called isomorphic
    with pytest.raises(ValueError, match="real structures on 1 and 2 generators"):
        composed_iso_is_algebra_map(rho_bar(1), rho_bar(2))
    # a sum or difference with a scalar is not defined (it raised AttributeError)
    for op in (lambda: a + 1, lambda: a - 1, lambda: a + gaussian(1), lambda: a - rational(1, 2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()
    # scalars still scale, and equal sizes still combine
    assert a * 2 == 2 * a == a + a
    assert grassmann._combination(2, 1, [((2, 0), a), ((0, 1), th(2, 1))]) == a * 2 + th(2, 1) * I


def test_a_coefficient_that_is_not_exact_raises_a_type_error_naming_it():
    # a float used to fail inside fractions: "both arguments should be Rational instances"
    match = r"0\.5 is not an exact scalar"
    for op in (
        lambda: GrassmannElement(1, {(0,): 0.5}),
        lambda: GrassmannElement.generator(1, 0).scale(0.5),
        lambda: GrassmannElement.generator(1, 0) * 0.5,
        lambda: 0.5 * GrassmannElement.generator(1, 0),
    ):
        with pytest.raises(TypeError, match=match):
            op()


def test_rho_bar_pythagorean_phase():
    lam = gaussian(rational(3, 5), rational(4, 5))
    rho = rho_bar(1, [lam])
    assert rho.validate() == []
    basis = real_form_basis(rho)
    assert len(basis) == 2
    # the fixed line inside G_1 is spanned by (1 + conj(lambda)) theta
    fixed_line = [a for a in basis if a.in_nilpotent_ideal()]
    assert len(fixed_line) == 1
    v = fixed_line[0]
    assert rho.apply(v) == v
    ts = normalize_generators(rho)
    assert rho.apply(ts[0]) == ts[0]
    assert not ts[0] * ts[0]


def test_rho_tr_valid_and_normalizes():
    rho = rho_tr(2)
    assert rho.validate() == []
    # rho^2(xi) = rho(i eta) = -i rho(eta) = -i i xi = xi
    xi = GrassmannElement.generator(2, 0)
    assert rho.apply(rho.apply(xi)) == xi
    ts = normalize_generators(rho)
    assert len(ts) == 2
    for a in ts:
        for b in ts:
            assert not a * b + b * a
    iso = CanonicalIso(rho)
    assert iso.check()


def test_invalid_structure_reports_generator():
    # rho(theta) = 2 theta is not involutive
    imgs = [GrassmannElement(1, {(0,): gaussian(2)})]
    with pytest.raises(ValueError, match=r"^invalid real structure at generator 1: rho\^2 is not the identity$"):
        make_real_structure(imgs)


def test_fixed_space_dimension_random():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        rho, _ = random_real_structure(n, rng)
        basis = real_form_basis(rho)
        assert len(basis) == 2 ** n
        # RE is closed under multiplication
        for a in basis[:4]:
            for b in basis[:4]:
                prod = a * b
                assert rho.apply(prod) == prod


def test_random_real_structure_gives_up_after_a_bounded_number_of_draws(monkeypatch):
    # a rank that reads too high made the redraw loop run forever
    calls = []

    def too_high(rows, cols):
        calls.append(cols)
        if len(calls) > 10_000:
            raise AssertionError("random_real_structure redraws without a bound")
        return cols + 1

    monkeypatch.setattr(grassmann, "rank", too_high)
    with pytest.raises(RuntimeError, match="no invertible linear part on 2 generators") as exc:
        random_real_structure(2, random.Random(1))
    assert str(exc.value).endswith(f" in {len(calls)} draws")
    assert len(calls) == grassmann._MAX_DRAWS


def test_structural_subspaces():
    sub2 = structural_subspaces(2)
    assert set(sub2["center"]) == {(), (0, 1)}
    sub3 = structural_subspaces(3)
    assert set(sub3["center"]) == {(), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    assert set(sub3["odd_minus"]) == {(0,), (1,), (2,)}


def test_structural_subspaces_n1_keeps_the_generator_in_odd_minus():
    # for n = 1 the central top monomial is theta itself; dropping it from
    # odd_minus left every fixed generator with a non-central tail
    sub1 = structural_subspaces(1)
    assert set(sub1["odd_minus"]) == {(0,)}
    assert set(sub1["center"]) == {(), (0,)}
    assert sub1["center_cap_G2"] == []
    rng = random.Random(31)
    for _ in range(5):
        rho, _ = random_real_structure(1, rng)
        ts = normalize_generators(rho)
        assert CanonicalIso(rho, ts).check()


def test_rho_preserves_nilpotent_ideal():
    rng = random.Random(13)
    for n in (2, 3):
        rho, _ = random_real_structure(n, rng)
        for j in range(n):
            img = rho.apply(GrassmannElement.generator(n, j))
            assert img.in_nilpotent_ideal()


def test_realification_splits():
    # RE + i RE = everything, RE ∩ i RE = 0
    rng = random.Random(17)
    rho, _ = random_real_structure(2, rng)
    basis = real_form_basis(rho)
    subsets = all_subsets(2)
    pos = {s: k for k, s in enumerate(subsets)}
    vecs = [rho.element_to_vec(a, pos) for a in basis]
    vecs += [rho.element_to_vec(a.scale(I), pos) for a in basis]
    assert len(row_space_basis(vecs, 2 * len(subsets))) == 2 * len(subsets)


def test_normalization_random_campaign_small():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(5):
            rho, _ = random_real_structure(n, rng)
            ts = normalize_generators(rho)
            iso = CanonicalIso(rho, ts)
            assert iso.check()


def test_check_rejects_generators_that_are_not_an_isomorphism():
    # shifted generators span the real form but square to nonzero, so
    # multiplicativity fails; repeated ones do not span it, so the rank fails
    rng = random.Random(37)
    for n in (2, 3):
        rho, _ = random_real_structure(n, rng)
        ts = normalize_generators(rho)
        assert CanonicalIso(rho, ts).check()
        shifted = CanonicalIso(rho, [ts[0], ts[1] + GrassmannElement.one(n)] + ts[2:])
        assert shifted._solver.rank == 2 ** n
        assert not shifted.check()
        repeated = CanonicalIso(rho, [ts[0], ts[0]] + ts[2:])
        assert repeated._solver.rank < 2 ** n
        assert not repeated.check()


def test_pairwise_isomorphism():
    rng = random.Random(29)
    rho1, _ = random_real_structure(2, rng)
    rho2, _ = random_real_structure(2, rng)
    assert composed_iso_is_algebra_map(rho1, rho2)


def test_no_canonical_form_witness():
    # two valid structures with distinct fixed subspaces
    rho1 = rho_bar(1)
    rho2 = rho_bar(1, [gaussian(rational(3, 5), rational(4, 5))])
    b1 = real_form_basis(rho1)
    b2 = real_form_basis(rho2)
    subsets = all_subsets(1)
    pos = {s: k for k, s in enumerate(subsets)}
    v1 = [rho1.element_to_vec(a, pos) for a in b1]
    joint = v1 + [rho2.element_to_vec(a, pos) for a in b2]
    assert len(row_space_basis(joint, 2 * len(subsets))) > len(row_space_basis(v1, 2 * len(subsets)))


GAUSSIAN_RATIONALS = st.builds(
    lambda a, b, c, d: gaussian(rational(a, b), rational(c, d)),
    st.integers(-12, 12),
    st.integers(1, 12),
    st.integers(-12, 12),
    st.integers(1, 12),
)


@st.composite
def element_triples(draw):
    """Three elements of Lambda_C(n), n <= 4, with up to 6 terms each, a scalar,
    and a positive den with one Gaussian integer coefficient per element."""
    n = draw(st.integers(1, 4))
    subsets = st.sampled_from(all_subsets(n))
    elements = tuple(
        GrassmannElement(n, draw(st.dictionaries(subsets, GAUSSIAN_RATIONALS, max_size=6))) for _ in range(3)
    )
    z = draw(st.one_of(GAUSSIAN_RATIONALS, st.builds(rational, st.integers(-12, 12), st.integers(1, 12))))
    parts = st.integers(-12, 12)
    return elements, z, draw(st.integers(1, 12)), [(draw(parts), draw(parts)) for _ in elements]


def assert_gaussian_values(a):
    for c in a.terms.values():
        assert type(c) is GaussianRational and c
        assert type(c.re) is type(ZERO) and type(c.im) is type(ZERO)


def assert_canonical(a):
    """den > 0, no zero pair and gcd(den, every part) = 1: the one representation of a's value."""
    assert type(a.den) is int and a.den > 0
    assert all(type(x) is int for v in a.nums.values() for x in v)
    assert all(u or v for u, v in a.nums.values())
    assert gcd(a.den, *[x for v in a.nums.values() for x in v]) == 1


@settings(max_examples=200, deadline=None)
@given(element_triples())
def test_product_is_the_term_by_term_product_and_associative(case):
    (a, b, c), z, den, coeffs = case
    n = a.n
    ab = a * b
    assert ab == grassmann_product(a, b)
    abc_left, abc_right = ab * c, a * (b * c)
    assert abc_left == abc_right
    # the linear operations against term-by-term sums of GaussianRationals
    one = gaussian(1)
    assert (a + b).terms == grassmann_linear_terms([(one, a), (one, b)])
    assert (a - b).terms == grassmann_linear_terms([(one, a), (-one, b)])
    assert (-a).terms == grassmann_linear_terms([(-one, a)])
    assert a.scale(z).terms == (z * a).terms == grassmann_linear_terms([(z, a)])
    assert a.conjugate().terms == {s: v.conjugate() for s, v in a.terms.items()}
    combined = grassmann._combination(n, den, zip(coeffs, (a, b, c)))
    scalars = [gaussian(rational(u, den), rational(v, den)) for u, v in coeffs]
    assert combined.terms == grassmann_linear_terms(zip(scalars, (a, b, c)))
    results = (ab, abc_left, abc_right, a + b, a - b, -a, a.scale(z), a.conjugate(), combined)
    for x in results:
        assert_gaussian_values(x)
        assert_canonical(x)
    # equal values built over different denominators are equal
    assert a.scale(rational(1, 2)).scale(2) == a
    assert (a + b) - b == a == b + a - b
    if z:
        assert a.scale(z).scale(1 / as_gaussian(z)) == a
        assert (a + b).scale(z) == a.scale(z) + b.scale(z)
    assert GrassmannElement(n, a.terms) == a


@st.composite
def maps_and_elements(draw):
    """n <= 4 generator images of up to 4 terms each, not necessarily a real
    structure, and an element of Lambda_C(n) with up to 6 terms."""
    n = draw(st.integers(1, 4))
    subsets = st.sampled_from(all_subsets(n))

    def element(size):
        return GrassmannElement(n, draw(st.dictionaries(subsets, GAUSSIAN_RATIONALS, max_size=size)))

    return [element(4) for _ in range(n)], element(6)


@settings(max_examples=150, deadline=None)
@given(maps_and_elements())
def test_the_generator_map_is_the_sum_of_ordered_products_of_images(case):
    # image(a) = sum c_S phi(theta_j1) ... phi(theta_jk) and rho(a) = image(conj(a)),
    # against term-by-term products and sums of GaussianRationals
    images, a = case
    n = a.n

    def expected(conjugate):
        pairs = []
        for s, c in a.terms.items():
            m = GrassmannElement.one(n)
            for j in s:
                m = grassmann_product(m, images[j])
            pairs.append((c.conjugate() if conjugate else c, m))
        return GrassmannElement(n, grassmann_linear_terms(pairs))

    image = grassmann._GeneratorMap(n, images).image(a)
    rho_a = grassmann.RealStructure(n, images).apply(a)
    for got, want in ((image, expected(False)), (rho_a, expected(True))):
        assert (got.den, got.nums) == (want.den, want.nums)
        assert_canonical(got)
        assert_gaussian_values(got)


@pytest.mark.parametrize("key", [(1, 0), (0, 0), (2,), (5,), (-1,), (0, 2), (0.0,), "0"], ids=repr)
def test_the_constructor_rejects_a_subset_key_that_is_not_canonical(key):
    # (1, 0) and (0, 1) name one monomial up to sign: accepting both made the
    # zero sum theta_2 theta_1 + theta_1 theta_2 print as two terms
    with pytest.raises(ValueError, match=re.escape(f"subset key {key!r}")):
        GrassmannElement(2, {key: gaussian(1)})
    with pytest.raises(ValueError, match="subset key"):
        GrassmannElement.generator(2, 2)
    # results of operations need no check: their keys are canonical
    assert GrassmannElement(2, {(0, 1): 1}) + GrassmannElement(2, {(0, 1): -1}) == GrassmannElement(2)
    assert not (th(2, 1) * th(2, 0) + th(2, 0) * th(2, 1))


def test_product_that_cancels_has_no_terms():
    a = GrassmannElement(2, {(0,): gaussian(rational(1, 3)), (1,): gaussian(0, rational(1, 2))})
    assert (a * a).terms == {}
    b = GrassmannElement(2, {(): gaussian(rational(1, 6), 1), (0, 1): gaussian(rational(5, 4))})
    prod = a * b + b * a
    assert set(prod.terms) == {(0,), (1,)}
    assert_gaussian_values(prod)


def test_normalized_generators_are_pinned():
    def dump(a):
        return [[list(s), format_scalar(c)] for s, c in sorted(a.terms.items())]

    doc = {}
    for n in range(1, 5):
        for seed in range(1, 6):
            rho = random_real_structure(n, random.Random(1000 * n + seed))[0]
            ts = normalize_generators(rho)
            doc[f"{n}/{seed}"] = {"ts": [dump(t) for t in ts], "images": [dump(x) for x in rho.images]}
    assert canonical_sha256(doc) == "0feec6a2a69594789a24ef813805b6b86f80d608762c888552f37a122654f5d3"


def test_canonical_iso_rejects_a_wrong_number_of_generators():
    # one generator used to raise a bare IndexError; three made check() true, the third ignored
    rho = rho_bar(2)
    ts = normalize_generators(rho)
    for generators in (ts[:1], ts + [ts[0]]):
        with pytest.raises(ValueError, match=f"needs 2 generators, got {len(generators)}"):
            CanonicalIso(rho, generators)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_automorphism_inverse_round_trips_every_monomial(n):
    for seed in range(4):
        g, _ = grassmann._random_automorphism(n, random.Random(100 * n + seed))
        for s in all_subsets(n):
            for c in (1, gaussian(rational(2, 3), -1)):
                m = GrassmannElement(n, {s: c})
                assert g.image(g.inverse_image(m)) == m
                assert g.inverse_image(g.image(m)) == m


def test_random_real_structure_images_are_pinned():
    def dump(a):
        return [[list(s), format_scalar(c)] for s, c in sorted(a.terms.items())]

    doc = {}
    for n in range(1, 6):
        for seed in range(1, 5):
            rho, discarded = random_real_structure(n, random.Random(3000 * n + seed))
            doc[f"{n}/{seed}"] = {"images": [dump(x) for x in rho.images], "discarded": discarded}
    assert canonical_sha256(doc) == "53c4a75a7525ab7f0c293a0a5b295999e63d234fbf0e4271094b049a22e3e333"


def test_a_singular_linear_part_is_rejected_when_the_automorphism_is_built():
    for images in (
        [GrassmannElement(1, {})],
        [th(2, 0) + th(2, 1), (th(2, 0) + th(2, 1)).scale(I)],
        [th(3, 0), th(3, 1), th(3, 0, 1, 2)],  # the third image has no degree-1 term
    ):
        with pytest.raises(ValueError, match="linear part"):
            grassmann._Automorphism(len(images), images)


def test_a_correction_past_its_bound_raises():
    # theta_1 -> 1 + theta_1 is no algebra map (its square is not 0); with
    # the constant term g - L also lowers degree, and the residual grows
    g = grassmann._Automorphism(2, [GrassmannElement.one(2) + th(2, 0), th(2, 1) + th(2, 0, 1)])
    with pytest.raises(AutomorphismError, match="after 2 rounds"):
        g.inverse_image(th(2, 1))


def test_real_structures_and_the_canonical_iso_reject_bad_input():
    with pytest.raises(ValueError, match="^rho_tr needs an even number of generators$"):
        rho_tr(3)
    with pytest.raises(ValueError, match="^need 2 generator images$"):
        RealStructure(2, [th(2, 0)])
    iso = CanonicalIso(rho_bar(1))
    assert iso.apply(th(1, 0)) == th(1, 0)
    # i theta is not fixed by componentwise conjugation
    with pytest.raises(ValueError, match="^element is not in the real form$"):
        iso.apply(th(1, 0).scale(I))
