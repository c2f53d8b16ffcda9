from math import comb

import pytest

from superalg.spaces import BasisVector, SuperSpace, admissible_words, sort_word

from oracles import count_admissible_words


def test_sort_word_exterior():
    parities = [0, 0, 1]
    assert sort_word((1, 0), parities) == ((0, 1), -1)
    assert sort_word((2, 2), parities) == ((2, 2), 1)
    assert sort_word((0, 0), parities) is None
    # odd past even flips sign under the exterior convention
    assert sort_word((2, 0), parities) == ((0, 2), -1)


def test_exterior_power_dimensions_trivial():
    assert admissible_words([0, 0], 2) == [(0, 1)]
    assert admissible_words([1], 2) == [(0, 0)]  # odd square survives
    for parities, k in (([0, 0], 2), ([1], 2)):
        assert len(admissible_words(parities, k)) == count_admissible_words(parities, k, evens_strict=True)


def test_exterior_power_2_2_cube_by_enumeration():
    # brute-force oracle over admissible words
    expected = count_admissible_words([0, 0, 1, 1], 3, evens_strict=True)
    assert len(admissible_words([0, 0, 1, 1], 3)) == expected


def test_dimension_closed_form_small_range():
    # enumeration matches the binomial convolution for all p,q <= 4, k <= 4
    for p in range(5):
        for q in range(5):
            parities = [0] * p + [1] * q
            def multiset(q, j):
                if j == 0:
                    return 1
                return comb(q + j - 1, j) if q > 0 else 0

            for k in range(5):
                closed = sum(comb(p, k - j) * multiset(q, j) for j in range(k + 1))
                assert len(admissible_words(parities, k)) == closed


def test_basis_vectors_and_spaces_reject_bad_input():
    with pytest.raises(ValueError, match="^parity must be 0 or 1, got 2$"):
        BasisVector("a", 2)
    with pytest.raises(ValueError, match="^duplicate basis id 'a'$"):
        SuperSpace([BasisVector("a", 0), BasisVector("a", 1)])
