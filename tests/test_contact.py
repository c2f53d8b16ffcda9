"""The contact and pericontact fields preserve their forms' distributions.

K_f satisfies L_{K_f}(alpha1) = K_1(f) alpha1 and M_f satisfies
L_{M_f}(alpha0) = -(-1)^{p(f)} M_1(f) alpha0.  Both identities are checked on
every generating monomial of weight at most 3; they pin the sign rules of the
theta term in `hamiltonian_field` and of the periplectic term in
`pericontact_field`.  The documents of the truncated spans k(1+2n|m) and
m(n) are pinned by their canonical SHA-256, and every bracket of their
tables is checked against the bracket of their fields.
"""

import pytest

from superalg.contact import (
    contact_algebra,
    contact_coords,
    contact_field,
    pericontact_algebra,
    pericontact_coords,
    pericontact_field,
)
from superalg.polyvf import Coords, Polynomial, monomials_of_degree

from oracles import canonical_sha256, check_contact_invariance, check_pericontact_invariance, realization_failures


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


def _contact_span(n, m, max_degree, field="Q"):
    coords = contact_coords(n, m, field=field)
    return contact_algebra(n, m, max_degree, field=field), coords, lambda f: contact_field(f, coords)


def _pericontact_span(n, max_degree):
    coords = pericontact_coords(n)
    return pericontact_algebra(n, max_degree), coords, lambda f: pericontact_field(f, coords)


# each span as (algebra, coords, the field of a generating function), and its document's digest
SPANS = {
    "k(1|1)_3": (lambda: _contact_span(0, 1, 3), "bf7feeacd8024c33cb200fb468f98df03506082ef11691cc753e496cc3a57fc8"),
    "k(1|3)_3": (lambda: _contact_span(0, 3, 3), "e081b7c089779eeebff06850277894d1edd24668f31882cc201c831845ada0d4"),
    "k(3|2)_3": (lambda: _contact_span(1, 2, 3), "7722749624343aedf92576daea37ba336196e404621f3f9dc07597b5fd59eba7"),
    "k(1|2)_2^C": (
        lambda: _contact_span(0, 2, 2, field="Q(i)"),
        "aa7f6303c0442cd5c1c3a5705edb1afb29da42a21f0944656d05ae81370bad43",
    ),
    "k(1|2)_4^C": (
        lambda: _contact_span(0, 2, 4, field="Q(i)"),
        "576da440a4675ff8192f4149473e9809918a9707a2657c621cdf3b79543712e4",
    ),
    "m(1)_2": (lambda: _pericontact_span(1, 2), "af5f4cbfe2d03f8667bc8c0a6cd2dbea0c14f9c8ac600b16af80b6befa475b96"),
    "m(2)_2": (lambda: _pericontact_span(2, 2), "614f483c34e96ad3816495a4ca3bf1a2b7d8e8b99d93ea1c5094a6e6824cd98d"),
}


@pytest.mark.parametrize("name", list(SPANS))
def test_span_algebra_documents_are_pinned(name):
    build, sha256 = SPANS[name]
    assert canonical_sha256(build()[0].to_document()) == sha256


@pytest.mark.parametrize("name", list(SPANS))
def test_every_bracket_of_a_span_is_the_bracket_of_its_fields(name):
    # algebra_of_fields brackets only the negative fields and derives the
    # rest: each [X_a, X_b] up to the truncation, by VectorField.bracket
    g, coords, field_of = SPANS[name][0]()
    # the fields in basis order, by span_algebra's loop over the generating monomials
    fields = []
    for w in range(g.truncation + 3):
        for m in monomials_of_degree(coords, w):
            X = field_of(Polynomial(coords, {m: coords.field.one}))
            if X:
                fields.append(X)
    assert [(X.parity(), X.degree()) for X in fields] == [(g.parity(k), g.degree(k)) for k in range(len(g))]
    assert realization_failures(g, fields, coords, g.truncation) == []


def test_contact_and_pericontact_fields_need_their_own_coordinates():
    contact, peri, plain = contact_coords(1, 1), pericontact_coords(1), Coords(["t"], [0])
    for coords in (peri, plain):
        with pytest.raises(ValueError, match=r"^contact_field needs contact coordinates \(t, p, q, ξ, η\[, θ\]\)$"):
            contact_field(coords.one())
    for coords in (contact, plain):
        with pytest.raises(ValueError, match=r"^pericontact_field needs coordinates \(q, ξ, τ\)$"):
            pericontact_field(coords.one())
