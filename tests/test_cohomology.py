import pytest

from superalg.algebra import realify
from superalg.cohomology import NegativePart, cochain_basis, cochain_block_key, differential_matrix, h2_by_degree
from superalg.constructors import build_minkowski_g0
from superalg.contact import contact_algebra, pericontact_algebra
from superalg.prolong import prolong_nonpositive
from superalg.scalars import ZERO

from oracles import dense_rank_fraction_free


@pytest.fixture(scope="module")
def mink1_reduced():
    return prolong_nonpositive(build_minkowski_g0(1, "reduced"), 2).algebra


@pytest.mark.parametrize(
    "build, dims",
    [
        (lambda: prolong_nonpositive(build_minkowski_g0(1, "conformal"), 2).algebra, [0, 0, 8]),
        (lambda: realify(contact_algebra(0, 2, 2, field="Q(i)")), [0, 0, 0]),
        (lambda: pericontact_algebra(1, 2), [0, 0, 0]),
    ],
    ids=["minkowski-N1-conformal", "k(1|2)^R", "m(1|1)"],
)
def test_h2_dims_in_degrees_1_to_3(build, dims):
    report = h2_by_degree(build(), (1, 2, 3))
    assert [report["h2_dims"][str(d)] for d in (1, 2, 3)] == dims


def test_h2_dims_minkowski_n1_reduced(mink1_reduced):
    report = h2_by_degree(mink1_reduced, (1, 2, 3))
    assert [report["h2_dims"][str(d)] for d in (1, 2, 3)] == [4, 6, 8]


def _blocks(g, neg, z):
    """Cochain bases of C^1, C^2, C^3 grouped by (parity, weight) block key."""
    out = {}
    for k in (1, 2, 3):
        for key in cochain_basis(g, neg, k, z):
            out.setdefault(cochain_block_key(g, neg, key), {1: [], 2: [], 3: []})[k].append(key)
    return out


def _compose(d2, d1):
    by_row = {}
    for (r, j), v in d1.entries.items():
        by_row.setdefault(r, []).append((j, v))
    prod = {}
    for (i, r), v in d2.entries.items():
        for j, w in by_row.get(r, ()):
            prod[(i, j)] = prod.get((i, j), ZERO) + v * w
    return prod


def test_d2_d1_vanishes_on_every_block_of_minkowski_n1_reduced(mink1_reduced):
    g = mink1_reduced
    neg = NegativePart(g)
    nontrivial = 0
    for z, expected_h2 in zip((1, 2, 3), (4, 6, 8)):
        h2 = 0
        for key, basis in _blocks(g, neg, z).items():
            d1 = differential_matrix(g, neg, 1, z, basis[1], basis[2], key[0])
            d2 = differential_matrix(g, neg, 2, z, basis[2], basis[3], key[0])
            assert not any(_compose(d2, d1).values()), (z, key)
            nontrivial += bool(d1.nnz() and d2.nnz())
            # dim H^2 = dim C^2 - rank d2 - rank d1, ranks from the oracle
            h2 += len(basis[2]) - dense_rank_fraction_free(d2.to_dense()) - dense_rank_fraction_free(d1.to_dense())
        assert h2 == expected_h2
    assert nontrivial > 0
