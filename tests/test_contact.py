"""The contact and pericontact fields preserve their forms' distributions.

K_f satisfies L_{K_f}(alpha1) = K_1(f) alpha1 and M_f satisfies
L_{M_f}(alpha0) = -(-1)^{p(f)} M_1(f) alpha0.  Both identities are checked on
every generating monomial of weight at most 3; they pin the sign rules of the
theta term in `hamiltonian_field` and of the periplectic term in
`pericontact_field`.
"""

import pytest

from superalg.contact import (
    check_contact_invariance,
    check_pericontact_invariance,
    contact_coords,
    pericontact_coords,
)
from superalg.polyvf import Polynomial, monomials_of_degree


def _monomials(coords, max_weight=3):
    return [
        Polynomial(coords, {m: coords.field.one})
        for w in range(max_weight + 1)
        for m in monomials_of_degree(coords, w)
    ]


@pytest.mark.parametrize(
    "n, m, count",
    [(0, 1, 4), (0, 2, 7), (1, 1, 20), (1, 2, 30)],
    ids=["k(1|1)", "k(1|2)", "k(3|1)", "k(3|2)"],
)
def test_contact_field_preserves_the_contact_distribution(n, m, count):
    coords = contact_coords(n, m)
    fs = _monomials(coords)
    assert len(fs) == count
    assert [str(f) for f in fs if not check_contact_invariance(f, coords)] == []


@pytest.mark.parametrize("n, count", [(1, 10), (2, 30)], ids=["m(1)", "m(2)"])
def test_pericontact_field_preserves_the_pericontact_distribution(n, count):
    coords = pericontact_coords(n)
    fs = _monomials(coords)
    assert len(fs) == count
    assert [str(f) for f in fs if not check_pericontact_invariance(f, coords)] == []
