import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.algebra import LieSuperAlgebra, from_matrices, realify, supercommutator
from superalg.cohomology import (
    DegreeCohomology,
    NegativePart,
    cochain_basis,
    cochain_block_key,
    differential_matrix,
    h2_by_degree,
)
from superalg.constructors import (
    Action,
    abelian_negative,
    build_ab,
    build_complexified_minkowski,
    build_gl,
    build_hei,
    build_minkowski_g0,
    build_q,
    combine_nonpositive,
    tautological_action,
)
from superalg.contact import contact_algebra, pericontact_algebra
from superalg.linalg import SpanSolver
from superalg.prolong import degree_zero_derivations, prolong_nonpositive
from superalg.scalars import FIELD_QI, ONE, ZERO, GaussianRational, format_scalar, gaussian, parse_scalar, rational
from superalg.spaces import BasisVector, SuperSpace

from oracles import canonical_sha256, dense_rank_fraction_free, differential_entries


def mink1_conformal():
    return prolong_nonpositive(build_minkowski_g0(1, "conformal"), 2).algebra


@pytest.fixture(scope="module")
def mink1_reduced():
    return prolong_nonpositive(build_minkowski_g0(1, "reduced"), 2).algebra


# The digests pin each whole report (representatives, weight vectors, i-pairs),
# not only its dims; the same values are pinned by the benchmark's h2_sweep.
@pytest.mark.parametrize(
    "build, dims, sha256",
    [
        (mink1_conformal, [0, 0, 8], "f40b85fa744f0a0976f000c80d0c6405b66d5b66cfdc04f4ad6f9adf447cca9a"),
        (
            lambda: realify(contact_algebra(0, 2, 2, field="Q(i)")),
            [0, 0, 0],
            "468853083bacc5d00f523c26c264dbd95f4d80be354e6525c732c85bca85dfd9",
        ),
        (lambda: pericontact_algebra(1, 2), [0, 0, 0], "8c75441ecb2cf4739404ff346312c616ff0830c13431f1f7d464c90a79b48d74"),
    ],
    ids=["minkowski-N1-conformal", "k(1|2)^R", "m(1|1)"],
)
def test_h2_dims_in_degrees_1_to_3(build, dims, sha256):
    report = h2_by_degree(build(), (1, 2, 3))
    assert [report["h2_dims"][str(d)] for d in (1, 2, 3)] == dims
    assert canonical_sha256(report) == sha256


# The seven algebras of the benchmark's h2_sweep, each with the digest of its
# report in degrees 1..3.
H2_SWEEP_ALGEBRAS = pytest.mark.parametrize(
    "build, sha256",
    [
        (lambda: build_complexified_minkowski(2), "d67b27574f675d35da53e8fddb550f89986900457f4b420500d3a5f90cd44c15"),
        (lambda: build_complexified_minkowski(1), "143b96d03bc2b0eec308bb4a44cd21a8a1dbd65584ecc487234057d817bf1177"),
        (
            lambda: prolong_nonpositive(build_minkowski_g0(1, "reduced"), 2).algebra,
            "77d3767ee941e9a2e1e3823ffeb9a97e2b8907e61b2ff29e9a38833014baaa23",
        ),
        (mink1_conformal, "f40b85fa744f0a0976f000c80d0c6405b66d5b66cfdc04f4ad6f9adf447cca9a"),
        (
            lambda: realify(contact_algebra(0, 2, 2, field="Q(i)")),
            "468853083bacc5d00f523c26c264dbd95f4d80be354e6525c732c85bca85dfd9",
        ),
        (lambda: contact_algebra(1, 2, 3), "a10e1d9e9c7004cffbe748f302af0e729a32eca82466949c31a197b99f226878"),
        (lambda: pericontact_algebra(1, 2), "8c75441ecb2cf4739404ff346312c616ff0830c13431f1f7d464c90a79b48d74"),
    ],
    ids=["mink2^C", "mink1^C", "mink1-reduced", "mink1-conformal", "k(1|2)^R", "k(3|2)", "m(1|1)"],
)


# A document carries no weights; from_document recomputes them from the Cartan
# ids, so a round trip keeps the whole report of every algebra that the
# benchmark's h2_sweep pins.
@H2_SWEEP_ALGEBRAS
def test_a_document_round_trip_keeps_the_h2_report(build, sha256):
    g = LieSuperAlgebra.from_document(build().to_document())
    assert canonical_sha256(h2_by_degree(g, (1, 2, 3))) == sha256


@H2_SWEEP_ALGEBRAS
def test_component_indices_are_a_scan_of_the_basis(build, sha256):
    g = build()
    for alg in (g, LieSuperAlgebra.from_document(g.to_document())):
        for d in alg.degrees() + [max(alg.degrees()) + 1]:
            scan = [k for k, b in enumerate(alg.space.basis) if b.degree == d]
            got = alg.component_indices(d)
            assert got == scan
            # each call returns a new list, so a caller cannot change the index
            got.append(-1)
            assert alg.component_indices(d) == scan


def test_h2_dims_minkowski_n1_reduced(mink1_reduced):
    report = h2_by_degree(mink1_reduced, (1, 2, 3))
    assert [report["h2_dims"][str(d)] for d in (1, 2, 3)] == [4, 6, 8]
    assert canonical_sha256(report) == "77d3767ee941e9a2e1e3823ffeb9a97e2b8907e61b2ff29e9a38833014baaa23"


def test_total_i_pairing_of_realified_complexified_minkowski():
    # i is defined on every basis vector, so H^2 splits into literal i-pairs
    report = h2_by_degree(realify(build_complexified_minkowski(1)), (1,))
    assert report["h2_dims"] == {"1": 32}
    pairing = report["degrees"]["1"]["i_pairing"]
    assert pairing["mode"] == "total"
    assert pairing["pair_count"] == 16
    assert pairing["unpaired"] == [] and pairing["undetermined"] == []
    assert canonical_sha256(report) == "a5329ff8d3004108aa81add8ec026aeab74949569f2b55803b3b4a5502836615"


def _blocks(g, neg, z):
    """Cochain bases of C^1, C^2, C^3 grouped by (parity, weight) block key."""
    out = {}
    for k in (1, 2, 3):
        for key in cochain_basis(g, neg, k, z):
            out.setdefault(cochain_block_key(g, neg, key), {1: [], 2: [], 3: []})[k].append(key)
    return out


def test_block_keys_come_from_one_cached_parity_and_weight_per_word(mink1_reduced):
    g = mink1_reduced
    neg = NegativePart(g)
    for z in (1, 2, 3):
        for k in (1, 2, 3):
            for word, t in cochain_basis(g, neg, k, z):
                # both are on the integer weights, weight_den times the rational ones
                parity, wt = neg.word_key(word)
                den = neg.weight_den
                assert (parity, wt) == (neg.word_parity(word), tuple(x * den for x in neg.word_weight(word)))
                tw = g.space.basis[t].weight
                assert cochain_block_key(g, neg, (word, t)) == (
                    (g.parity(t) + parity) % 2,
                    tuple(a * den - b for a, b in zip(tw, wt)),
                )
                assert neg.word_key(word) is neg.word_key(word)


def _dense(m):
    data = [[ZERO] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        data[r][c] = v
    return data


def _compose(d2, d1):
    by_row = {}
    for (r, j), v in d1.entries.items():
        by_row.setdefault(r, []).append((j, v))
    prod = {}
    for (i, r), v in d2.entries.items():
        for j, w in by_row.get(r, ()):
            prod[(i, j)] = prod.get((i, j), ZERO) + v * w
    return prod


def _check_d_squared_and_h2(g, expected_h2_dims):
    """d2∘d1 = 0 and dim H^2 = dim C^2 - rank d2 - rank d1 on every block, Z-degrees 1..3."""
    neg = NegativePart(g)
    nontrivial = 0
    for z, expected_h2 in zip((1, 2, 3), expected_h2_dims):
        h2 = 0
        for key, basis in _blocks(g, neg, z).items():
            d1 = differential_matrix(neg, basis[1], basis[2], key[0])
            d2 = differential_matrix(neg, basis[2], basis[3], key[0])
            assert not any(_compose(d2, d1).values()), (z, key)
            nontrivial += bool(d1.nnz() and d2.nnz())
            # dim H^2 = dim C^2 - rank d2 - rank d1, ranks from the oracle
            h2 += len(basis[2]) - dense_rank_fraction_free(_dense(d2)) - dense_rank_fraction_free(_dense(d1))
        assert h2 == expected_h2, z
    assert nontrivial > 0


def test_d2_d1_vanishes_on_every_block_of_minkowski_n1_reduced(mink1_reduced):
    _check_d_squared_and_h2(mink1_reduced, (4, 6, 8))


@pytest.mark.parametrize(
    "build, h2_dims",
    [(mink1_conformal, (0, 0, 8)), (lambda: contact_algebra(1, 2, 3), (0, 0, 0))],
    ids=["minkowski-N1-conformal", "k(3|2)"],
)
def test_d2_d1_vanishes_on_every_block(build, h2_dims):
    _check_d_squared_and_h2(build(), h2_dims)


def _bracket_closure(gens, n):
    """A basis of the span of the homogeneous n x n supermatrices gens and all their supercommutators."""
    basis = []
    todo = list(gens)
    while todo:
        p, m = todo.pop(0)
        vecs = [{r * n + c: v for (r, c), v in x.items()} for _, x in basis]
        if not m or SpanSolver(vecs, n * n).contains({r * n + c: v for (r, c), v in m.items()}):
            continue
        basis.append((p, m))
        todo += [((p + q) % 2, supercommutator(m, x, p, q)) for q, x in basis]
    return basis


SMALL_NEGATIVE_PARTS = [(build_ab, (1,)), (build_ab, (2,))] + [(build_hei, a) for a in ((2, 0), (0, 2), (2, 1), (0, 3))]


@st.composite
def small_nonpositive_parts(draw):
    """(g_minus, action of g0): g0 the bracket closure of one or two random degree-0 derivations."""
    build, args = draw(st.sampled_from(SMALL_NEGATIVE_PARTS))
    g_minus = build(*args)
    der = degree_zero_derivations(g_minus)
    by_parity = {}
    for k, mat in enumerate(der.matrices):
        by_parity.setdefault(der.algebra.parity(k), []).append(mat)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        p = draw(st.sampled_from(sorted(by_parity)))
        mats = by_parity[p]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(mats), max_size=len(mats)).filter(any))
        m = {}
        for c, mat in zip(coeffs, mats):
            for rc, v in mat.items():
                m[rc] = m.get(rc, ZERO) + c * v
        gens.append((p, {rc: v for rc, v in m.items() if v}))
    n = len(g_minus)
    items = [(f"D_{k + 1}", p, 0, m) for k, (p, m) in enumerate(_bracket_closure(gens, n))]
    g0 = from_matrices(items, [g_minus.parity(k) for k in range(n)], field="Q")
    return g_minus, Action(g0, g_minus.space, [m for *_, m in items])


@settings(max_examples=30, deadline=None)
@given(small_nonpositive_parts())
def test_d2_d1_vanishes_on_random_small_prolongations(nonpositive):
    # g0 may have odd elements, which exercise the signs of the degree-0 realization
    g_minus, action = nonpositive
    g = prolong_nonpositive(combine_nonpositive(g_minus, action), 2).algebra
    assert g.check_super_jacobi() == []
    report = h2_by_degree(g, (1, 2, 3))
    _check_d_squared_and_h2(g, [report["degrees"][str(z)]["dim_H2"] for z in (1, 2, 3)])


def test_degree_zero_h2_of_the_realified_superstrings_is_n_minus_1_times_n_plus_2():
    """Degree-0 H^2 of k(1|N)^R, realify(contact_algebra(0, N, 4)) over QQ(i), is (N-1)(N+2) for N = 1..6.

    For N = 1..5 H^2 is 0 in degrees -1, 1 and 2.

    (N-1)(N+2) = 2 dim S^2_0(C^N): the classes appear only after realification
    and vanish exactly at N = 1, superdimension 1|1.  Reading them as values of
    the circumcised Nijenhuis tensor is this repository's interpretation of the
    paper's claim that the tensor vanishes identically only on 1|1 superstrings.
    """
    dims = [h2_by_degree(realify(contact_algebra(0, N, 4, field=FIELD_QI)), (-1, 0, 1, 2))["h2_dims"]
            for N in range(1, 6)]
    assert dims == [{"-1": 0, "0": (N - 1) * (N + 2), "1": 0, "2": 0} for N in range(1, 6)]
    assert [d["0"] for d in dims] == [0, 4, 10, 18, 28]
    assert h2_by_degree(realify(contact_algebra(0, 6, 4, field=FIELD_QI)), (0,))["h2_dims"] == {"0": 40}


def _check_cleared_differential(g, den):
    """Every block's differential_matrix is den * d in cleared entries; the Gaussian ones are returned."""
    neg = NegativePart(g)
    assert neg.den == den
    checked = 0
    gaussian = []
    for z in (1, 2, 3):
        for key, basis in _blocks(g, neg, z).items():
            for k in (1, 2):
                m = differential_matrix(neg, basis[k], basis[k + 1], key[0])
                for v in m.entries.values():
                    if isinstance(v, GaussianRational):
                        assert v.re.denominator == v.im.denominator == 1 and v.im
                        gaussian.append(v)
                    else:
                        assert type(v) is int
                got = {(basis[k + 1][r], basis[k][c]): v for (r, c), v in m.entries.items()}
                d = differential_entries(g, k, basis[k], basis[k + 1])
                assert got == {rc: den * v for rc, v in d.items()}, (z, key, k)
                checked += len(got)
    assert checked > 0
    return gaussian


def test_differential_matrix_is_den_times_d_in_ints():
    # the one benchmark algebra whose structure constants have denominator 2
    assert _check_cleared_differential(mink1_conformal(), 2) == []


def test_differential_matrix_over_genuinely_gaussian_constants(mink1_reduced):
    # the same algebra in the basis with one generator of g_-1 scaled by (1+i)/2
    doc = mink1_reduced.to_document()
    del doc["i_op"]  # written in the old basis
    doc["field"] = "Q(i)"
    scaled = mink1_reduced.ident(mink1_reduced.negative_indices()[0])
    lam = {scaled: gaussian(1, 1) / 2}
    doc["brackets"] = [
        [i, j, m, format_scalar(parse_scalar(c) * lam.get(i, 1) * lam.get(j, 1) / lam.get(m, 1))]
        for i, j, m, c in doc["brackets"]
    ]
    g = LieSuperAlgebra.from_document(doc)
    assert _check_cleared_differential(g, 2)
    assert h2_by_degree(g, (1, 2, 3))["h2_dims"] == {"1": 4, "2": 6, "3": 8}


def test_one_negative_part_per_report(monkeypatch, mink1_reduced):
    built = []
    init = NegativePart.__init__

    def counting_init(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(NegativePart, "__init__", counting_init)
    report = h2_by_degree(mink1_reduced, (1, 2, 3))
    # the weight vectors need the g0 action on cochains, so actions were built
    assert report["degrees"]["1"]["weight_vectors"]
    assert built == [mink1_reduced]


def test_h2_rejects_an_ungraded_algebra():
    with pytest.raises(ValueError, match="Z-graded"):
        h2_by_degree(build_gl(1, 1), [1, 2])


def test_h2_and_degree_zero_derivations_reject_bad_input():
    # these raised AttributeError ('str' object has no attribute 'is_graded') and a
    # TypeError on adding None to a degree
    for bad in ("x", None, build_gl(1, 1).to_document()):
        with pytest.raises(TypeError, match="^h2_by_degree needs a LieSuperAlgebra, got "):
            h2_by_degree(bad, [1])
        with pytest.raises(TypeError, match="^degree_zero_derivations needs a LieSuperAlgebra, got "):
            degree_zero_derivations(bad)
    ungraded = LieSuperAlgebra(SuperSpace([BasisVector("a", 0, -1), BasisVector("b", 0, None)]), {})
    with pytest.raises(ValueError, match="^degree_zero_derivations needs a Z-graded algebra$"):
        degree_zero_derivations(ungraded)


def test_h2_rejects_degrees_that_are_not_ints(mink1_reduced):
    for bad in ("1", 1.0, None, True):
        with pytest.raises(ValueError, match="degrees must be ints"):
            h2_by_degree(mink1_reduced, [1, bad])


def _product(a, b):
    """Product of two sparse matrices {(row, col): scalar}, zeros dropped."""
    by_row = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), v in a.items():
        for c, w in by_row.get(k, ()):
            out[(r, c)] = out.get((r, c), ZERO) + v * w
    return {rc: v for rc, v in out.items() if v}


@pytest.mark.parametrize(
    "build, degree, classes",
    [
        (lambda: realify(build_complexified_minkowski(1)), 1, 32),
        (lambda: realify(contact_algebra(0, 4, 4, field=FIELD_QI)), 0, 18),
    ],
    ids=["minkowski-N1^C^R", "k(1|4)^R"],
)
def test_i_induces_a_complex_structure_on_h2_commuting_with_g0(build, degree, classes):
    g = build()
    deg = DegreeCohomology(NegativePart(g), degree)
    assert deg.dim_h2 == classes
    i_mat = deg.i_matrix()
    assert _product(i_mat, i_mat) == {(r, r): -1 for r in range(classes)}
    acting = 0
    for h in g.component_indices(0):
        a = deg.action_matrix(h)
        assert _product(i_mat, a) == _product(a, i_mat), g.ident(h)
        acting += bool(a)
    assert acting


def _combination(terms):
    out = {}
    for c, m in terms:
        for rc, v in m.items():
            out[rc] = out.get(rc, ZERO) + c * v
    return {rc: v for rc, v in out.items() if v}


@pytest.mark.parametrize("variant", ["J", "Pi"])
def test_induced_action_is_a_super_representation_with_odd_elements(variant):
    # C^{2|2} with g_0 = q(2), whose odd half moves classes between the parity blocks
    action = tautological_action(build_q(2, variant))
    g = combine_nonpositive(abelian_negative(action.module), action)
    deg = DegreeCohomology(NegativePart(g), 2)
    assert deg.dim_h2 == 16
    zero = g.component_indices(0)
    assert any(deg.action_matrix(h) for h in zero if g.parity(h))
    for x in zero:
        for y in zero:
            ax, ay = deg.action_matrix(x), deg.action_matrix(y)
            sign = -1 if g.parity(x) and g.parity(y) else 1
            bracket = _combination([(ONE, _product(ax, ay)), (-sign, _product(ay, ax))])
            assert bracket == _combination(
                [(c, deg.action_matrix(z)) for z, c in g.bracket_basis(x, y).items()]
            ), (g.ident(x), g.ident(y))


def _plane(i_op):
    """x, ix spanning an abelian g_-1 = C, with an abelian g_0 = <z>: H^2 of degree 1 is 2-dimensional."""
    space = SuperSpace([BasisVector("x", 0, -1), BasisVector("ix", 0, -1), BasisVector("z", 0, 0)])
    return LieSuperAlgebra(space, {}, i_op=i_op)


def test_an_image_outside_the_computed_blocks_is_rejected():
    i_op = {0: {1: ONE}, 1: {0: -ONE}, 2: {2: ONE}}
    deg = DegreeCohomology(NegativePart(_plane(i_op)), 1)
    assert deg.dim_h2 == 2
    assert _product(deg.i_matrix(), deg.i_matrix()) == {(0, 0): -1, (1, 1): -1}
    # i sending x into g_0 moves the values of a degree-1 cochain out of degree 1
    deg = DegreeCohomology(NegativePart(_plane({**i_op, 0: {1: ONE, 2: ONE}})), 1)
    with pytest.raises(ValueError, match="action image leaves the computed blocks"):
        deg.i_matrix()


def test_i_matrix_needs_i_on_every_basis_vector():
    deg = DegreeCohomology(NegativePart(_plane({0: {1: ONE}, 1: {0: -ONE}})), 1)
    with pytest.raises(ValueError, match="not defined on every basis vector"):
        deg.i_matrix()


def _with_scaled_weights(g, c):
    """g with every weight times c: the Cartan element scaled, the same blocks."""
    basis = [BasisVector(b.id, b.parity, b.degree, tuple(x * c for x in b.weight)) for b in g.space.basis]
    return LieSuperAlgebra(SuperSpace(basis), g._table, truncation=g.truncation, field=g.field)


def _rational_block_order(g, neg, z):
    """(parity, weight) and C^2 keys of each block, grouped on the weights' own scalars, sorted by str."""
    blocks = {}
    for word, t in cochain_basis(g, neg, 2, z):
        wt, tw = neg.word_weight(word), g.space.basis[t].weight
        weight = tuple(a - b for a, b in zip(tw, wt))
        blocks.setdefault(((g.parity(t) + neg.word_parity(word)) % 2, weight), []).append((word, t))
    return sorted(blocks.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))


def test_integer_block_keys_keep_the_rational_block_weights_and_order():
    k12R = realify(contact_algebra(0, 2, 2, field=FIELD_QI))
    # k(1|2)^R mixes Fraction and GaussianRational weights
    assert {type(x).__name__ for b in k12R.space.basis for x in b.weight} == {"Fraction", "GaussianRational"}
    for g in (mink1_conformal(), k12R):
        for c in (ONE, rational(2, 3), gaussian(1, 2) / 3):
            gc = g if c == ONE else _with_scaled_weights(g, c)
            neg = NegativePart(gc)
            assert neg.weight_den == (1 if c == ONE else 3)
            for z in (1, 2, 3):
                deg = DegreeCohomology(neg, z)
                want = _rational_block_order(gc, neg, z)
                assert [((b.parity, b.weight), b.c2basis) for b in deg.blocks] == want
                # the weights carry the same scalar types: their str (the sort key) agrees
                assert [str(b.weight) for b in deg.blocks] == [str(w) for (_, w), _ in want]
                for b in deg.blocks:
                    word, t = b.c2basis[0]
                    assert b.key == cochain_block_key(gc, neg, (word, t))
                    assert b.key[1] == tuple(x * neg.weight_den for x in b.weight)
