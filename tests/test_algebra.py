import json
import random
import re

import pytest

from superalg.algebra import LieSuperAlgebra, TruncationError, from_matrices, realify
from superalg.constructors import (
    abelian_negative,
    build_ab,
    build_complexified_minkowski,
    build_gl,
    build_hei,
    build_minkowski_g0,
    build_minkowski_negative,
    build_q,
    build_sl,
    combine_nonpositive,
)
from superalg.contact import contact_algebra, contact_coords, pericontact_algebra, pericontact_coords
from superalg.grassmann import CanonicalIso, GrassmannElement, random_real_structure, rho_bar, rho_tr
from superalg.nijenhuis import standard_even_structure, standard_odd_structure
from superalg.prolong import degree_zero_derivations, prolong_nonpositive
from superalg.scalars import FIELD_Q, FIELD_QI, GaussianRational, I, format_scalar, gaussian, parse_scalar, rational
from superalg.spaces import BasisVector, SuperSpace

from oracles import dense_rank_fraction_free, matrix_supercommutator, representation_failures


def dense_of(alg, k, n):
    m = [[rational(0) for _ in range(n)] for _ in range(n)]
    for (r, c), v in alg.matrices[k].items():
        m[r][c] = v
    return m


def test_gl11_odd_bracket():
    g = build_gl(1, 1)
    e12, e21 = g.element({"E_{1,2}": 1}), g.element({"E_{2,1}": 1})
    out = g.bracket(e12, e21)
    # odd-odd anticommutator of complementary units is the full diagonal
    assert out == g.element({"E_{1,1}": 1, "E_{2,2}": 1})
    assert g.sdim() == (2, 2)


def test_even_self_bracket_vanishes():
    g = build_gl(2, 0)
    x = g.element({"E_{1,2}": rational(3, 2), "E_{1,1}": 1})
    assert g.bracket(x, x) == {}


def test_gl21_jacobi_and_matrix_oracle():
    g = build_gl(2, 1)
    assert g.check_super_jacobi() == []
    assert g.check_parities() == []
    # cross-check a few brackets against dense supercommutators
    rng = random.Random(5)
    n = 3
    for _ in range(10):
        i = rng.randrange(len(g))
        j = rng.randrange(len(g))
        comm = matrix_supercommutator(
            dense_of(g, i, n), dense_of(g, j, n), g.parity(i), g.parity(j)
        )
        out = g.bracket({i: rational(1)}, {j: rational(1)})
        rebuilt = [[rational(0)] * n for _ in range(n)]
        for k, c in out.items():
            for (r, cc), v in g.matrices[k].items():
                rebuilt[r][cc] = rebuilt[r][cc] + c * v
        assert rebuilt == comm


def test_fault_injection_reported():
    g = build_gl(1, 1)
    doc = g.to_document()
    # corrupt one structure constant
    bad = [list(row) for row in doc["brackets"]]
    bad[0][3] = "7/1"
    doc2 = dict(doc, brackets=bad)
    g2 = LieSuperAlgebra.from_document(doc2)
    violations = g2.check_super_jacobi()
    assert violations, "corrupted constants must be caught"


def test_weights_assigned_from_cartan():
    g = build_gl(2, 1)
    w = {b.id: b.weight for b in g.space.basis}
    assert w["E_{1,2}"] == (1, -1, 0)
    assert w["E_{3,1}"] == (-1, 0, 1)
    assert w["E_{2,2}"] == (0, 0, 0)


def test_realify_gl10():
    gc = build_gl(1, 0)
    gr = realify(gc)
    assert gr.sdim() == (2, 0)
    assert gr.check_i_op() == []
    # i_op swaps basis with sign
    k = gr.index("E_{1,1}")
    ik = gr.index("iE_{1,1}")
    assert gr.i_op[k] == {ik: rational(1)}
    assert gr.i_op[ik] == {k: rational(-1)}


def test_realify_block_form_matches_direct_real_construction():
    # structure constants of realify(gl(n|m;C)) match the (A,B;-B,A) block form
    gc = build_gl(1, 1)
    gr = realify(gc)
    assert gr.check_super_jacobi() == []
    n = 2
    gens = []
    for k in range(len(gc)):
        a = gc.matrices[k]
        blk = {}
        for (r, c), v in a.items():
            blk[(r, c)] = v
            blk[(r + n, c + n)] = v
        gens.append((gc.ident(k), gc.parity(k), None, blk))
    for k in range(len(gc)):
        a = gc.matrices[k]
        blk = {}
        for (r, c), v in a.items():
            blk[(r + n, c)] = v
            blk[(r, c + n)] = -v
        gens.append(("i" + gc.ident(k), gc.parity(k), None, blk))
    parity = [0, 1, 0, 1]
    direct = from_matrices(gens, parity, field="Q", name="block")
    for i in range(len(gr)):
        for j in range(len(gr)):
            assert gr._table.get((i, j), {}) == direct._table.get((i, j), {})


def test_realify_sl_jacobi():
    gr = realify(build_sl(2, 1))
    assert gr.check_super_jacobi() == []
    assert gr.check_grading() == []


def test_q_variants():
    for variant in ("J", "Pi"):
        g = build_q(2, variant)
        assert g.sdim() == (4, 4)
        assert g.check_super_jacobi() == []
    g1 = build_q(1, "Pi")
    assert g1.sdim() == (1, 1)


def test_q_variants_differ_over_Q_but_intertwine_over_Qi():
    gj = build_q(2, "J")
    gp = build_q(2, "Pi")
    # as presented over Q the structure constants differ
    bj = gj.bracket(gj.element({"B_{1,1}": 1}), gj.element({"B_{1,1}": 1}))
    bp = gp.bracket(gp.element({"B_{1,1}": 1}), gp.element({"B_{1,1}": 1}))
    assert bj != bp
    # over Q(i), B -> iB intertwines Pi into J
    gjc = build_q(2, "J", field="Q(i)")
    gpc = build_q(2, "Pi", field="Q(i)")

    def phi(alg_elt):
        out = {}
        for k, c in alg_elt.items():
            ident = gpc.ident(k)
            if ident.startswith("B"):
                out[gjc.index(ident)] = out.get(gjc.index(ident), 0) + c * I
            else:
                out[gjc.index(ident)] = out.get(gjc.index(ident), 0) + c
        return {k: v for k, v in out.items() if v}

    rng = random.Random(9)
    for _ in range(12):
        i = rng.randrange(len(gpc))
        j = rng.randrange(len(gpc))
        lhs = phi(gpc.bracket({i: gaussian(1)}, {j: gaussian(1)}))
        rhs = gjc.bracket(phi({i: gaussian(1)}), phi({j: gaussian(1)}))
        assert lhs == rhs


def test_hei_relations():
    g = build_hei(2, 0)
    assert len(g) == 3
    p, q, z = g.element({"p_1": 1}), g.element({"q_1": 1}), g.element({"z": 1})
    assert g.bracket(p, q) == z
    assert g.bracket(p, z) == {}
    assert g.check_super_jacobi() == []
    assert g.check_grading() == []
    g2 = build_hei(4, 2)
    assert g2.check_super_jacobi() == []


def test_hei_odd_theta_square():
    g = build_hei(0, 1)
    th = g.element({"θ": 1})
    assert g.bracket(th, th) == g.element({"z": 1})


def test_ab_central_odd():
    g = build_ab(1)
    assert g.sdim() == (1, 2)
    assert g.space.basis[g.index("z")].parity == 1
    assert g.bracket(g.element({"q_1": 1}), g.element({"ξ_1": 1})) == g.element({"z": 1})
    assert g.check_super_jacobi() == []


def test_minkowski_negative_dimensions():
    g = build_minkowski_negative(1)
    assert g.sdim() == (4, 4)
    d1 = [k for k in range(len(g)) if g.degree(k) == -1]
    d2 = [k for k in range(len(g)) if g.degree(k) == -2]
    assert len(d1) == 4 and all(g.parity(k) == 1 for k in d1)
    assert len(d2) == 4 and all(g.parity(k) == 0 for k in d2)
    assert g.check_super_jacobi() == []
    assert g.check_grading() == []


def test_minkowski_qq_bracket_matches_block_pattern():
    # [Q, Q'] must reproduce the hermitian -(conj(Q)^t Q' + conj(Q')^t Q) block
    g = build_minkowski_negative(1)
    q1 = g.element({"Q_{1,1}": 1})
    out = g.bracket(q1, q1)
    # conj(Q)^t Q for Q = (1 0): E_{11}; so [Q,Q] = -2 T_{1,1}
    assert out == g.element({"T_{1,1}": rational(-2)})
    out2 = g.bracket(q1, g.element({"iQ_{1,1}": 1}))
    assert out2 == {}
    out3 = g.bracket(q1, g.element({"Q_{1,2}": 1}))
    assert out3 == g.element({"T_{1,2}+T_{2,1}": rational(-1)})


def test_minkowski_nonintegrability_witness():
    # [g_{-1}, g_{-1}] = g_{-2} != 0: sections of degree -1 do not close
    g = build_minkowski_negative(1)
    d1 = [k for k in range(len(g)) if g.degree(k) == -1]
    span = set()
    for i in d1:
        for j in d1:
            for t in g._table.get((i, j), {}):
                span.add(t)
    d2 = {k for k in range(len(g)) if g.degree(k) == -2}
    assert span == d2
    # 2-step nilpotency: [g_{-2}, anything] = 0
    for k in range(len(g)):
        for t in range(len(g)):
            if g.degree(k) == -2:
                assert g._table.get((k, t), {}) == {}


def test_minkowski_g0_reduced_dimension():
    alg = build_minkowski_g0(1, "reduced")
    zero = alg.component_indices(0)
    assert len(zero) == 6  # sl(2;C) realified
    assert alg.check_super_jacobi() == []
    assert alg.check_grading() == []


def test_minkowski_g0_conformal_trace_constraint():
    alg = build_minkowski_g0(1, "conformal")
    zero = alg.component_indices(0)
    assert len(zero) == 8  # gl(2;C) realified, B determined by A
    assert alg.check_super_jacobi() == []
    # iA_{1,1} carries the u(1) compensation: acts on Q with the B-term
    iA11 = alg.index("iA_{1,1}")
    mat = alg.matrices[iA11]
    assert mat.get((2, 2)) == GaussianRational(0, 2)


def test_complexified_minkowski_sl41():
    g = build_complexified_minkowski(1)
    assert g.sdim() == (16, 8)  # sl(4|1;C): 24 total
    assert g.check_super_jacobi() == []
    assert g.check_grading() == []
    degs = {d: len(g.component_indices(d)) for d in g.degrees()}
    assert degs[-2] == 4 and degs[2] == 4 and degs[-1] == 4 and degs[1] == 4


def test_truncation_error():
    basis = [BasisVector("a", 0, 1), BasisVector("b", 0, 2)]
    g = LieSuperAlgebra(SuperSpace(basis), {}, truncation=2)
    with pytest.raises(TruncationError, match=r"^bracket \[a,b\] has degree 3, beyond truncation 2$"):
        g.bracket_basis(0, 1)


def test_a_truncated_algebra_needs_a_degree_on_every_basis_vector():
    basis = [BasisVector("a", 0, 1), BasisVector("b", 0), BasisVector("c", 0)]
    with pytest.raises(ValueError, match="basis vector 'b' has no degree"):
        LieSuperAlgebra(SuperSpace(basis), {}, truncation=1)
    doc = build_minkowski_negative(1).to_document()
    doc["basis"][1] = {k: v for k, v in doc["basis"][1].items() if k != "degree"}
    ident = doc["basis"][1]["id"]
    with pytest.raises(ValueError, match=re.escape(f"basis vector {ident!r} has no degree")):
        LieSuperAlgebra.from_document({**doc, "truncation": 1})
    # without a truncation a partly graded basis is accepted and checked in full
    assert LieSuperAlgebra.from_document(doc).check_super_jacobi() == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_gl(2, 1),
        lambda: build_sl(2, 1),
        lambda: build_q(2, "J"),
        lambda: build_q(2, "Pi"),
        lambda: build_minkowski_g0(1, "reduced"),
        lambda: build_minkowski_g0(2, "conformal"),
    ],
    ids=["gl(2|1)", "sl(2|1)", "q_J(2)", "q_Pi(2)", "mink1-reduced_0", "mink2-conformal_0"],
)
def test_a_document_round_trip_keeps_the_weights(build):
    g = build()
    assert g.cartan
    g2 = LieSuperAlgebra.from_document(g.to_document())
    assert [b.weight for b in g2.space] == [b.weight for b in g.space]


def test_serialization_roundtrip():
    g = build_minkowski_g0(1, "reduced")
    doc = g.to_document()
    g2 = LieSuperAlgebra.from_document(doc)
    assert g2.to_document() == doc
    assert g2.check_super_jacobi() == []


def test_documents_with_a_bad_parity_are_rejected():
    doc = build_hei(2, 1).to_document()
    for bad in ("od", "Odd", 1, ""):
        bad_doc = {**doc, "basis": [{**doc["basis"][0], "parity": bad}, *doc["basis"][1:]]}
        with pytest.raises(ValueError, match="not 'even' or 'odd'"):
            LieSuperAlgebra.from_document(bad_doc)


def test_documents_naming_an_unknown_id_are_rejected():
    doc = realify(build_gl(1, 1)).to_document()
    i, j, k, c = doc["brackets"][0]
    for brackets in ([[i, j, "y", c]], [["y", j, k, c]], [[i, "y", k, c]]):
        with pytest.raises(ValueError, match="unknown basis id 'y'"):
            LieSuperAlgebra.from_document({**doc, "brackets": brackets})
    for i_op in ({"y": {i: "1"}}, {i: {"y": "1"}}):
        with pytest.raises(ValueError, match="unknown basis id 'y'"):
            LieSuperAlgebra.from_document({**doc, "i_op": i_op})


# The annotations are checked where the algebra is built: assign_weights reads
# the Cartan ids, weight_vectors the raising ids only where H^2 != 0, and
# nothing reads the lowering ids.
@pytest.mark.parametrize("annotation", ["cartan", "raising", "lowering"])
def test_documents_annotating_an_unknown_id_are_rejected(annotation):
    doc = build_minkowski_g0(1, "reduced").to_document()
    assert doc[annotation]
    with pytest.raises(ValueError, match=f"^{annotation} id 'nope' is not a basis id$"):
        LieSuperAlgebra.from_document({**doc, annotation: [*doc[annotation], "nope"]})


def test_matrix_constructors_take_the_field_by_descriptor_or_name():
    for build, label in ((lambda f: build_gl(1, 1, field=f), "gl(1|1;Q)"), (lambda f: build_sl(2, 1, field=f), "sl(2|1;Q)")):
        doc = build(FIELD_Q).to_document()
        assert doc == build("Q").to_document()
        assert doc["name"] == label and doc["field"] == "Q"
    assert build_q(2, "J", field=FIELD_Q).to_document() == build_q(2, "J", field="Q").to_document()
    assert build_gl(1, 1, field=FIELD_QI).to_document() == build_gl(1, 1).to_document()
    assert build_gl(1, 1).name == "gl(1|1;C)" and build_gl(1, 1).field is FIELD_QI


def test_unknown_field_names_are_rejected():
    constructors = (
        lambda f: build_gl(1, 1, field=f),
        lambda f: build_sl(2, 1, field=f),
        lambda f: build_q(1, "J", field=f),
        lambda f: build_hei(2, 1, field=f),
        lambda f: build_ab(1, field=f),
        lambda f: from_matrices([], [0], field=f),
    )
    doc = build_hei(2, 1).to_document()
    for bad in ("bogus", "rational", "QQ", None):
        for build in constructors:
            with pytest.raises(ValueError, match="unknown field"):
                build(bad)
        with pytest.raises(ValueError, match="unknown field"):
            LieSuperAlgebra.from_document({**doc, "field": bad})


def test_gaussian_document_is_json():
    doc = build_hei(2, 1, field=FIELD_QI).to_document()
    assert json.loads(json.dumps(doc))["field"] == "Q(i)"
    assert LieSuperAlgebra.from_document(doc).field is FIELD_QI


def test_zero_generators_give_the_zero_algebra():
    for field in (FIELD_Q, FIELD_QI):
        g = from_matrices([], [0, 1], field=field)
        assert len(g) == 0 and g.field is field
        assert g.to_document()["brackets"] == []


def test_action_representation_check():
    g = build_gl(1, 1)
    assert representation_failures(g, g.matrices) == []
    # faithful: the flattened matrices are independent
    n = len(g.row_parity)
    flat = [[m.get((r, c), 0) for r in range(n) for c in range(n)] for m in g.matrices]
    assert dense_rank_fraction_free(flat) == len(g.matrices)
    combined = combine_nonpositive(abelian_negative(g.row_parity), g, g.matrices)
    assert combined.check_super_jacobi() == []
    assert combined.check_grading() == []
    # realified over QQ(i), a g_<=0 stays an algebra with its grading
    hei = build_hei(2, 1, field=FIELD_QI)
    der = degree_zero_derivations(hei)
    assert representation_failures(der, der.matrices) == []
    realified = realify(combine_nonpositive(hei, der, der.matrices))
    assert realified.check_super_jacobi() == []
    assert realified.check_grading() == []


# Each constructor names itself and the bad size; these used to fail with a bare
# KeyError, or build k(3|-1), m(-1), hei(2|-1), ab(-1), gl(-1|2), sl(-1|3) or a
# 16-dimensional "mink0^C", and True was taken as 1.
BAD_SIZES = [
    (contact_algebra, (0, 2, -1), ValueError, "contact_algebra: max_degree must be >= 0, got -1"),
    (pericontact_algebra, (1, -1), ValueError, "pericontact_algebra: max_degree must be >= 0, got -1"),
    (contact_algebra, (1, -1, 2), ValueError, "contact_algebra: m must be >= 0, got -1"),
    (contact_algebra, (-1, 2, 2), ValueError, "contact_algebra: n must be >= 0, got -1"),
    (pericontact_algebra, (-1, 2), ValueError, "pericontact_algebra: n must be >= 0, got -1"),
    (build_hei, (2, -1), ValueError, "build_hei: m must be >= 0, got -1"),
    (build_hei, (-2, 1), ValueError, "build_hei: n2 must be >= 0, got -2"),
    (build_ab, (-1,), ValueError, "build_ab: n must be >= 0, got -1"),
    (build_complexified_minkowski, (0,), ValueError, "build_complexified_minkowski: N must be >= 1, got 0"),
    (build_complexified_minkowski, (-1,), ValueError, "build_complexified_minkowski: N must be >= 1, got -1"),
    (build_minkowski_negative, (0,), ValueError, "build_minkowski_negative: N must be >= 1, got 0"),
    (build_minkowski_g0, (0, "reduced"), ValueError, "build_minkowski_g0: N must be >= 1, got 0"),
    (contact_algebra, (0, 2, True), TypeError, "contact_algebra: max_degree must be an int, got True"),
    (pericontact_algebra, (1, 1.0), TypeError, "pericontact_algebra: max_degree must be an int, got 1.0"),
    (build_hei, (2.0, 0), TypeError, "build_hei: n2 must be an int, got 2.0"),
    (build_complexified_minkowski, (True,), TypeError, "build_complexified_minkowski: N must be an int, got True"),
    (build_gl, (-1, 2), ValueError, "build_gl: m must be >= 0, got -1"),
    (build_sl, (-1, 3), ValueError, "build_sl: m must be >= 0, got -1"),
    (build_q, (0, "J"), ValueError, "build_q: n must be >= 1, got 0"),
    (build_q, (True, "J"), TypeError, "build_q: n must be an int, got True"),
    # these two returned truncated coordinates
    (contact_coords, (-1, 2), ValueError, "contact_coords: n must be >= 0, got -1"),
    (contact_coords, (1, -1), ValueError, "contact_coords: m must be >= 0, got -1"),
    (pericontact_coords, (-2,), ValueError, "pericontact_coords: n must be >= 0, got -2"),
    (pericontact_coords, (1.0,), TypeError, "pericontact_coords: n must be an int, got 1.0"),
]


@pytest.mark.parametrize(
    "build, args, error, message", BAD_SIZES, ids=[f"{build.__name__}{args}" for build, args, *_ in BAD_SIZES]
)
def test_constructors_reject_bad_sizes(build, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(*args)


# These were accepted (a Grassmann algebra on -1 generators, an empty structure
# for n = -1, a flat J on R^{-2|0}), or failed deep in the stack: "no invertible
# linear part" after 100 draws, a bare TypeError from range(), "can't multiply
# sequence", an error naming build_minkowski_negative, KeyError: 'basis'.
BAD_INPUTS = [
    (GrassmannElement, (-1,), ValueError, "GrassmannElement.__init__: n must be >= 0, got -1"),
    (GrassmannElement, (2.0,), TypeError, "GrassmannElement.__init__: n must be an int, got 2.0"),
    (rho_bar, (-1,), ValueError, "rho_bar: n must be >= 0, got -1"),
    (rho_tr, (-2,), ValueError, "rho_tr: n must be >= 0, got -2"),
    (standard_even_structure, (-1, 0), ValueError, "standard_even_structure: p must be >= 0, got -1"),
    (standard_even_structure, (1, True), TypeError, "standard_even_structure: q must be an int, got True"),
    (standard_odd_structure, (-1, 1), ValueError, "standard_odd_structure: n must be >= 0, got -1"),
    (random_real_structure, (-1, random.Random(1)), ValueError, "random_real_structure: n must be >= 0, got -1"),
    (random_real_structure, ("a", random.Random(1)), TypeError, "random_real_structure: n must be an int, got 'a'"),
    (build_minkowski_g0, ("x", "conformal"), TypeError, "build_minkowski_g0: N must be an int, got 'x'"),
    (
        LieSuperAlgebra.from_document,
        ({"format": "lie-superalgebra/1", "brackets": []},),
        ValueError,
        "lie-superalgebra/1 document without 'basis'",
    ),
    (
        LieSuperAlgebra.from_document,
        ({"format": "lie-superalgebra/1", "basis": []},),
        ValueError,
        "lie-superalgebra/1 document without 'brackets'",
    ),
]


@pytest.mark.parametrize(
    "build, args, error, message",
    BAD_INPUTS,
    ids=[f"{k}-{build.__qualname__}" for k, (build, *_) in enumerate(BAD_INPUTS)],
)
def test_sizes_and_documents_fail_with_a_named_error(build, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(*args)


def _even_pair(brackets=None, **annotations):
    """h of degree 0 and a, b of degree -1, all even, with the given brackets."""
    space = SuperSpace([BasisVector("h", 0, 0), BasisVector("a", 0, -1), BasisVector("b", 0, -1)])
    return LieSuperAlgebra(space, brackets or {}, **annotations)


_UNIT = rational(1)
_E12, _E21 = ("E12", 1, None, {(0, 1): _UNIT}), ("E21", 1, None, {(1, 0): _UNIT})

# Each input error of the algebra layer, by the exact message that names it.
INPUT_ERRORS = [
    ("inconsistent bracket", lambda: _even_pair({(1, 2): {0: _UNIT}, (2, 1): {0: _UNIT}}), "inconsistent bracket for b,a"),
    ("no i operator", lambda: _even_pair().check_i_op(), "algebra has no i operator"),
    (
        "not a weight basis",
        lambda: _even_pair({(0, 1): {2: _UNIT}}, cartan=["h"]).assign_weights(),
        "basis vector a is not an ad(h) eigenvector",
    ),
    ("not a document", lambda: LieSuperAlgebra.from_document({}), "not a lie-superalgebra/1 document"),
    (
        "matrix parity",
        lambda: from_matrices([("X", 0, None, {(0, 1): _UNIT})], [0, 1]),
        "generator X parity 0 but matrix parity 1",
    ),
    (
        "inhomogeneous matrix",
        lambda: from_matrices([("X", 0, None, {(0, 0): _UNIT, (0, 1): _UNIT})], [0, 1]),
        "matrix is not parity homogeneous",
    ),
    (
        "bracket off the span",
        lambda: from_matrices([_E12, _E21], [0, 1]),
        "bracket [E12,E21] leaves the span of the generators",
    ),
    ("realify over QQ", lambda: realify(build_hei(2, 0)), "realify expects an algebra over Q(i)"),
    ("gl(0|0)", lambda: build_gl(0, 0), "need m+n >= 1"),
    ("sl(1|1)", lambda: build_sl(1, 1), "sl(n|n) has a center; not needed here"),
    ("q variant", lambda: build_q(1, "K"), "variant must be 'J' or 'Pi'"),
    ("hei odd n2", lambda: build_hei(1, 0), "n2 must be even"),
    ("minkowski case", lambda: build_minkowski_g0(1, "other"), "case must be 'conformal' or 'reduced'"),
    (
        "action size",
        lambda: combine_nonpositive(abelian_negative([0]), build_gl(1, 0), []),
        "one matrix per algebra basis vector required",
    ),
    (
        "module ids",
        lambda: combine_nonpositive(abelian_negative([0]), build_gl(1, 1), build_gl(1, 1).matrices),
        "matrix 1 has entry (0, 1) outside the 1 basis vectors of g_minus",
    ),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in INPUT_ERRORS], ids=[case[0] for case in INPUT_ERRORS])
def test_algebra_input_errors_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_zero_generators_still_make_a_grassmann_algebra():
    assert CanonicalIso(rho_bar(0)).check()
    assert GrassmannElement(0, {(): 3}) * GrassmannElement.one(0) == GrassmannElement(0, {(): 3})
    assert not standard_even_structure(0, 0).columns


def _rational_jacobi_violations(g):
    """The triples i <= j <= k in range whose Jacobiator, summed on the rational constants, is nonzero."""
    top = g.truncation
    n = len(g)
    bad = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                di, dj, dk = g.degree(i), g.degree(j), g.degree(k)
                if top is not None and max(di + dj, dj + dk, di + dk, di + dj + dk) > top:
                    continue
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    sign = -1 if (g.parity(a) and g.parity(c)) else 1
                    for m, cm in g._table.get((b, c), {}).items():
                        for t, ct in g._table.get((a, m), {}).items():
                            total[t] = total.get(t, 0) + sign * cm * ct
                if any(total.values()):
                    bad.append((g.ident(i), g.ident(j), g.ident(k)))
    return bad


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_integer_jacobi_check_flags_the_rational_jacobiators(field):
    # N=1 conformal has denominator-2 constants; corrupt one constant at a time by 1/3 (or i/3)
    g = prolong_nonpositive(build_minkowski_g0(1, "conformal"), 2).algebra
    assert g.cleared_table()[0] == 2 and g.check_super_jacobi() == []
    doc = g.to_document()
    doc["field"] = field
    delta = rational(1, 3) if field == "Q" else gaussian(0, rational(1, 3))
    rng = random.Random(11)
    for row in rng.sample(range(len(doc["brackets"])), 6):
        bad = [list(r) for r in doc["brackets"]]
        bad[row][3] = format_scalar(parse_scalar(bad[row][3]) + delta)
        g2 = LieSuperAlgebra.from_document(dict(doc, brackets=bad))
        violations = g2.check_super_jacobi()
        assert violations == _rational_jacobi_violations(g2)
        assert violations, bad[row]


def test_check_table_raises_for_the_first_check_that_fails():
    # [a, b] = h with a, b even of degree -1: h odd of degree -2 breaks the
    # parities only, h odd of degree 0 the grading too, which is checked first
    def algebra(h_degree):
        space = SuperSpace([BasisVector("a", 0, -1), BasisVector("b", 0, -1), BasisVector("h", 1, h_degree)])
        return LieSuperAlgebra(space, {(0, 1): {2: rational(1)}})

    template = dict.fromkeys(("grading", "parities", "weights"), "{what}: [{a},{b}] has {t}, {bad}")
    with pytest.raises(ValueError, match=r"^parities: \[a,b\] has h, \('a', 'b', 'h'\)$"):
        algebra(-2).check_table(ValueError, template)
    with pytest.raises(ValueError, match=r"^grading: \[a,b\] has h, \('a', 'b', 'h'\)$"):
        algebra(0).check_table(ValueError, template)
    with pytest.raises(KeyError, match="off the parities"):
        algebra(-2).check_table(KeyError, {"parities": "off the {what}"})
    assert build_hei(2, 1).check_table(ValueError, {}) is None
