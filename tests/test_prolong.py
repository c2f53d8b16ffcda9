import pytest

from superalg import prolong
from superalg.algebra import LieSuperAlgebra, from_matrices, realify
from superalg.constructors import (
    Action,
    abelian_negative,
    build_ab,
    build_gl,
    build_hei,
    build_minkowski_g0,
    build_minkowski_negative,
    build_q,
    build_sl,
    combine_nonpositive,
    realified_matrix_pair,
    realify_action,
    tautological_action,
)
from superalg.contact import contact_algebra, pericontact_algebra
from superalg.polyvf import Coords, VectorField, coordinate_field, field_basis_index, mono_parity, monomials_of_degree
from superalg.prolong import (
    ProlongError,
    _candidate_blocks,
    algebra_of_fields,
    degree_zero_derivations,
    prolong_nonpositive,
    realize_degree_zero,
    realize_negative,
)
from superalg.cohomology import h2_by_degree
from superalg.linalg import SpanSolver
from superalg.scalars import FIELD_QI, ZERO, gaussian, rational
from superalg.spaces import BasisVector, SuperSpace

from oracles import canonical_sha256, representation_failures


def prolong_pair(action, max_degree, g_minus=None):
    """Prolong g_minus + g0 joined from g0's action; g_minus defaults to the abelian algebra on the module."""
    if g_minus is None:
        g_minus = abelian_negative(action.module)
    return prolong_nonpositive(combine_nonpositive(g_minus, action), max_degree)


def formula_field(nonpos, coords, h):
    """X_h = -sum_b (-1)^{p_h p_b} c^t_{hb} x_b d_t over g_minus, summed with VectorField arithmetic."""
    X = VectorField(coords)
    pos = {k: coords.index[nonpos.ident(k)] for k in nonpos.negative_indices()}
    for b in pos:
        sign = 1 if nonpos.parity(h) and nonpos.parity(b) else -1
        for t, c in nonpos._table.get((h, b), {}).items():
            X = X + VectorField(coords, {pos[t]: coords.var(pos[b]).scale(sign * c)})
    return X


def assert_degree_zero_fields_follow_the_formula(nonpos, coords, fields):
    """Each field is linear, equals formula_field in values and value types, and has its terms in order."""
    assert list(fields) == nonpos.component_indices(0)
    for h, X in fields.items():
        want = formula_field(nonpos, coords, h)
        assert X == want, nonpos.ident(h)
        assert {v: {m: type(c) for m, c in t.items()} for v, t in X.terms.items()} == {
            v: {m: type(c) for m, c in t.items()} for v, t in want.terms.items()
        }
        assert all(len(m) == 1 and m[0][1] == 1 for t in X.terms.values() for m in t), nonpos.ident(h)
        assert list(X.terms) == sorted(X.terms) and all(list(t) == sorted(t) for t in X.terms.values())


# How many degree-0 realizations the fixture below has checked.
FORMULA_CHECKS = []


@pytest.fixture(autouse=True)
def every_degree_zero_realization_follows_the_formula(monkeypatch):
    """Checks the degree-0 realization of every prolongation a test of this file makes."""
    realize = prolong.realize_degree_zero

    def checked(nonpos, coords, neg_fields):
        fields = realize(nonpos, coords, neg_fields)
        assert_degree_zero_fields_follow_the_formula(nonpos, coords, fields)
        FORMULA_CHECKS.append(len(fields))
        return fields

    monkeypatch.setattr(prolong, "realize_degree_zero", checked)


def align_graded(A, B, base_map, max_degree):
    """Extend a degree <= 0 correspondence to a graded isomorphism A -> B.

    base_map sends each A basis id of degree <= 0 to an element of B.  The
    positive part is forced by brackets with g_{-1}; the extended map is then
    verified to be a homomorphism on all in-range pairs.  Raises on failure.
    """
    phi = {A.index(s): dict(v) for s, v in base_map.items()}
    neg1 = [k for k in range(len(A)) if A.degree(k) == -1]
    for d in range(1, max_degree + 1):
        targets = [k for k in range(len(B)) if B.degree(k) == d]
        rows_dim = None
        cols = []
        for t in targets:
            col = {}
            pos = 0
            for e in neg1:
                img = B.bracket({t: rational(1)}, phi[e])
                for m, c in img.items():
                    col[pos + m] = c
                pos += len(B)
            cols.append(col)
            rows_dim = pos
        if not targets:
            if any(A.degree(k) == d for k in range(len(A))):
                raise ProlongError(f"no degree-{d} targets available in B")
            continue
        solver = SpanSolver(cols, rows_dim)
        for k in [k for k in range(len(A)) if A.degree(k) == d]:
            target_vec = {}
            pos = 0
            for e in neg1:
                val = A._table.get((k, e), {})
                img = {}
                for t, c in val.items():
                    for m, cm in phi[t].items():
                        nv = img.get(m, ZERO) + c * cm
                        if nv:
                            img[m] = nv
                        elif m in img:
                            del img[m]
                for m, c in img.items():
                    target_vec[pos + m] = c
                pos += len(B)
            sol = solver.solve(target_vec)
            if sol is None:
                raise ProlongError(f"cannot align {A.ident(k)} in degree {d}")
            phi[k] = {targets[j]: c for j, c in sorted(sol.items())}
    # verify homomorphism property on all in-range pairs
    maxd = max_degree
    mind = min(A.degrees())
    for i in sorted(phi):
        for j in sorted(phi):
            if j < i:
                continue
            dij = A.degree(i) + A.degree(j)
            if dij > maxd or dij < mind:
                continue
            lhs = {}
            for t, c in A._table.get((i, j), {}).items():
                for m, cm in phi[t].items():
                    nv = lhs.get(m, ZERO) + c * cm
                    if nv:
                        lhs[m] = nv
                    elif m in lhs:
                        del lhs[m]
            rhs = B.bracket(phi[i], phi[j])
            if lhs != rhs:
                raise ProlongError(
                    f"alignment is not a homomorphism at [{A.ident(i)},{A.ident(j)}]"
                )
    # injectivity: phi images independent degree by degree
    for d in range(mind, maxd + 1):
        ks = [k for k in sorted(phi) if A.degree(k) == d]
        if not ks:
            continue
        vecs = []
        for k in ks:
            vecs.append({m: c for m, c in phi[k].items()})
        if SpanSolver(vecs, len(B)).rank != len(ks):
            raise ProlongError(f"alignment degenerates in degree {d}")
    return {A.ident(k): v for k, v in phi.items()}

def gl_action(m, n, field="Q"):
    g = build_gl(m, n, field=field)
    return tautological_action(g)


def sp2_action():
    # sp(2) = sl(2) preserving the symplectic form on Q^2
    gens = [
        ("H", 0, None, {(0, 0): rational(1), (1, 1): rational(-1)}),
        ("X", 0, None, {(0, 1): rational(1)}),
        ("Y", 0, None, {(1, 0): rational(1)}),
    ]
    g = from_matrices(gens, [0, 0], field="Q", name="sp(2)")
    return tautological_action(g)


def sp4_action():
    # sp(4) on Q^4: [[A, B], [C, -A^t]] with B and C symmetric
    one = rational(1)
    gens = []
    for r in range(2):
        for c in range(2):
            gens.append((f"A_{{{r + 1},{c + 1}}}", 0, None, {(r, c): one, (2 + c, 2 + r): -one}))
    for name, dr, dc in (("B", 0, 2), ("C", 2, 0)):
        for r in range(2):
            for c in range(r, 2):
                unit = {(dr + r, dc + c): one, (dr + c, dc + r): one}
                gens.append((f"{name}_{{{r + 1},{c + 1}}}", 0, None, unit))
    g = from_matrices(gens, [0, 0, 0, 0], field="Q", name="sp(4)")
    return tautological_action(g)


def o3_action():
    gens = [
        ("R1", 0, None, {(0, 1): rational(1), (1, 0): rational(-1)}),
        ("R2", 0, None, {(0, 2): rational(1), (2, 0): rational(-1)}),
        ("R3", 0, None, {(1, 2): rational(1), (2, 1): rational(-1)}),
    ]
    g = from_matrices(gens, [0, 0, 0], field="Q", name="o(3)")
    return tautological_action(g)


def test_vect2_first_prolong():
    act = gl_action(2, 0)
    res = prolong_pair(act, 1)
    assert res.component_dims()[1] == 6  # S^2(V*) x V


def test_h2_pattern_sp2():
    act = sp2_action()
    res = prolong_pair(act, 1)
    assert res.component_dims()[1] == 4  # S^3 V*
    assert res.algebra.check_super_jacobi() == []


def test_sp4_prolong_and_h2():
    # the symplectic form's degree-1 classes: dim H^2 = 24 - 20 = 4 = dim L^3 V*
    act = sp4_action()
    res = prolong_pair(act, 2)
    assert res.component_dims() == {-1: 4, 0: 10, 1: 20, 2: 35}
    report = h2_by_degree(res.algebra, (1, 2))
    dims = {
        d: tuple(report["degrees"][d][key] for key in ("dim_Z2", "dim_B2", "dim_H2"))
        for d in ("1", "2")
    }
    assert dims == {"1": (24, 20, 4), "2": (45, 45, 0)}


def test_metric_rigidity_o3():
    act = o3_action()
    res = prolong_pair(act, 1)
    assert res.component_dims()[1] == 0


def test_gl_prolong_is_full_polynomial_field_space():
    # (id, gl(m|n))_k = S^{k+1}(V*) x V for m+n <= 3, k <= 3
    for (m, n) in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (1, 2), (3, 0)):
        act = gl_action(m, n)
        res = prolong_pair(act, 3)
        coords = Coords([b.id for b in act.module], [b.parity for b in act.module])
        for k in range(1, 4):
            expected = len(monomials_of_degree(coords, k + 1)) * (m + n)
            assert res.component_dims()[k] == expected, (m, n, k)


def test_prolong_brackets_match_realization():
    act = gl_action(1, 1)
    res = prolong_pair(act, 2)
    fields = res.realization
    g = res.algebra
    for i in range(len(g)):
        for j in range(len(g)):
            di, dj = g.degree(i), g.degree(j)
            if di + dj > res.truncation or di + dj < -1:
                continue
            lhs = fields[g.ident(i)].bracket(fields[g.ident(j)])
            rhs_vec = g._table.get((i, j), {})
            rhs = None
            for t, c in rhs_vec.items():
                term = fields[g.ident(t)].scale(c)
                rhs = term if rhs is None else rhs + term
            if rhs is None:
                rhs = VectorField(res.coords)
            assert lhs == rhs


def _sl2_fields():
    # d_x, x d_x and x^2 d_x on one even coordinate of degree 1: vect(1) up to degree 1
    coords = Coords(["x"], [0], [1])
    x = coords.var(0)
    fields = [
        ("D", -1, coordinate_field(coords, 0)),
        ("E", 0, VectorField(coords, {0: x})),
        ("H", 1, VectorField(coords, {0: x * x})),
    ]
    return coords, [(ident, 0, d, X) for ident, d, X in fields]


def test_algebra_of_fields_expands_the_brackets_in_the_span():
    coords, gens = _sl2_fields()
    g = algebra_of_fields(coords, gens, 1)
    table = {
        (g.ident(i), g.ident(j)): {g.ident(k): c for k, c in val.items()}
        for (i, j), val in g._table.items()
        if i <= j and val
    }
    assert table == {("D", "E"): {"D": 1}, ("D", "H"): {"E": 2}, ("E", "H"): {"H": 1}}
    assert g.truncation == 1 and g.field is coords.field


def test_algebra_of_fields_rejects_a_span_that_does_not_close():
    coords, gens = _sl2_fields()
    with pytest.raises(ProlongError, match=r"\[D,H\] is not closed in degree 0"):
        algebra_of_fields(coords, [gen for gen in gens if gen[0] != "E"], 1)


def test_gl_prolong_components_are_g0_submodules():
    act = gl_action(1, 1)
    res = prolong_pair(act, 2)
    g = res.algebra
    for k in (1, 2):
        comp = set(g.component_indices(k))
        for z in g.component_indices(0):
            for c in comp:
                img = g._table.get((z, c), {})
                assert set(img) <= comp


def test_depth1_gl_prolongation_documents_are_pinned():
    # SHA-256 of the canonical JSON of each degree-3 algebra document; the same
    # documents come out of an intersection-of-images prolongation, which makes
    # the pins independent of the kernel method they now check
    pinned = {
        (1, 1): "92d30fd033f17ae66470c68695320474d3ca2cf08e7489d6321d34f73d5a250c",
        (2, 1): "b3b9f25702ae15776277fd19d09990fee99fe0ee39fcb6b40f36ae0b8dbf191f",
        (1, 2): "6ba64403563d8036876ecbbe600f41d8e81b0f7750e7069b3225982c847e8dff",
    }
    for (m, n), sha256 in pinned.items():
        doc = prolong_pair(gl_action(m, n), 3).algebra.to_document()
        assert canonical_sha256(doc) == sha256, (m, n)


def test_gaussian_prolongation_equals_the_rational_one():
    # hei's structure constants are rational, so prolonging over QQ(i) must
    # give the QQ document, realization included, apart from the field name
    for n2, m in ((2, 0), (0, 2), (2, 1)):
        docs = {}
        for field in ("Q", "Q(i)"):
            g = build_hei(n2, m, field=field)
            res = prolong_pair(degree_zero_derivations(g), 2, g)
            assert res.algebra.field.name == field
            docs[field] = res.to_document()
            assert docs[field].pop("field") == field
        assert docs["Q"] == docs["Q(i)"], (n2, m)


def test_minkowski_conformal_prolongation_documents_are_pinned():
    # canonical JSON of the whole document, realization included
    pinned = {
        (2, 2): "96da98fe93df594ad51880bd843fbbd17f03863754fd450e2cc42d1fec0ff179",
        (1, 3): "b3c0db19cf3334569e42ab1c7b57629eb080fe50f7c7168ce056638a93f18ef3",
    }
    for (N, degree), sha256 in pinned.items():
        res = prolong_nonpositive(build_minkowski_g0(N, "conformal"), degree)
        assert canonical_sha256(res.to_document()) == sha256, (N, degree)


def test_heisenberg_prolong_matches_contact_k3():
    hei = build_hei(2, 0)
    act = degree_zero_derivations(hei)
    assert len(act.algebra) == 4  # csp(2)
    res = prolong_pair(act, 2, hei)
    dims = res.component_dims()
    k3 = contact_algebra(1, 0, 2)
    kdims = {d: len(k3.component_indices(d)) for d in k3.degrees()}
    assert dims == kdims
    base = {}
    # canonical alignment: W generators map to their contact fields, z via bracket
    base["p_1"] = {k3.index("K_{p_1}"): rational(1)}
    base["q_1"] = {k3.index("K_{q_1}"): rational(1)}
    base["z"] = k3.bracket(base["p_1"], base["q_1"])
    g = res.algebra
    # degree-0: solve brackets with the negatives (align_graded needs deg<=0 too)
    phi = _extend_zero(g, k3, base)
    full = align_graded(g, k3, phi, 2)
    assert set(full) == {g.ident(k) for k in range(len(g))}


def _extend_zero(A, B, base):
    """Extend a g_minus correspondence over degree-0 basis ids by solving brackets."""
    neg = [k for k in range(len(A)) if A.degree(k) < 0]
    zero_A = [k for k in range(len(A)) if A.degree(k) == 0]
    zero_B = [k for k in range(len(B)) if B.degree(k) == 0]
    cols = []
    for t in zero_B:
        col = {}
        pos = 0
        for e in neg:
            img = B.bracket({t: rational(1)}, base[A.ident(e)])
            for m, c in img.items():
                col[pos + m] = c
            pos += len(B)
        cols.append(col)
    solver = SpanSolver(cols, len(neg) * len(B))
    out = dict(base)
    for k in zero_A:
        vec = {}
        pos = 0
        for e in neg:
            val = A._table.get((k, e), {})
            for t, c in val.items():
                for m, cm in base[A.ident(t)].items():
                    vec[pos + m] = vec.get(pos + m, ZERO) + c * cm
            pos += len(B)
        sol = solver.solve(vec)
        assert sol is not None, f"cannot align degree-0 {A.ident(k)}"
        out[A.ident(k)] = {zero_B[j]: c for j, c in sorted(sol.items())}
    return out


def test_heisenberg_super_prolong_matches_contact():
    # (hei(2n|m), cosp^a)_* vs K_f spans for 2n+m <= 4, degrees <= 2
    cases = [(2, 1), (0, 2), (2, 2), (0, 3), (4, 0), (0, 4)]
    for (n2, m) in cases:
        hei = build_hei(n2, m)
        act = degree_zero_derivations(hei)
        res = prolong_pair(act, 2, hei)
        k = contact_algebra(n2 // 2, m, 2)
        kdims = {d: len(k.component_indices(d)) for d in k.degrees()}
        assert res.component_dims() == kdims, (n2, m)


def test_heisenberg_contact_structure_constants_align():
    # the form convention differs between the abstract hei and the contact
    # realization: K-brackets give [K_p, K_q] = -K_1 but [K_th, K_th] = +K_1,
    # so the first generator of each symplectic pair maps with a sign
    for (n2, m) in ((2, 1), (0, 2), (2, 0)):
        hei = build_hei(n2, m)
        act = degree_zero_derivations(hei)
        res = prolong_pair(act, 2, hei)
        k = contact_algebra(n2 // 2, m, 2)
        base = {}
        g = res.algebra
        wnames = [g.ident(i) for i in range(len(g)) if g.degree(i) == -1]
        for w in wnames:
            sign = rational(-1) if w.startswith(("p_", "ξ_")) else rational(1)
            base[w] = {k.index(f"K_{{{w}}}"): sign}
        # z from any nonvanishing W-pair bracket
        z_id = [g.ident(i) for i in range(len(g)) if g.degree(i) == -2][0]
        done = False
        for a in wnames:
            for b in wnames:
                val = g.bracket(g.element({a: rational(1)}), g.element({b: rational(1)}))
                if val:
                    (zi, c), = val.items()
                    img = k.bracket(base[a], base[b])
                    base[z_id] = {t: v / c for t, v in img.items()}
                    done = True
                    break
            if done:
                break
        phi = _extend_zero(g, k, base)
        full = align_graded(g, k, phi, 2)
        assert len(full) == len(g)


def test_antibracket_prolong_matches_pericontact():
    ab = build_ab(1)
    act = degree_zero_derivations(ab)
    res = prolong_pair(act, 2, ab)
    m1 = pericontact_algebra(1, 2)
    mdims = {d: len(m1.component_indices(d)) for d in m1.degrees()}
    assert res.component_dims() == mdims
    g = res.algebra
    # M_f has parity p(f)+1, so the even q matches the even field M_xi and the
    # odd xi matches the odd field M_q
    base = {
        "q_1": {m1.index("M_{ξ_1}"): rational(1)},
        "ξ_1": {m1.index("M_{q_1}"): rational(1)},
    }
    val = g.bracket(g.element({"q_1": rational(1)}), g.element({"ξ_1": rational(1)}))
    (zi, c), = val.items()
    img = m1.bracket(base["q_1"], base["ξ_1"])
    base["z"] = {t: v / c for t, v in img.items()}
    phi = _extend_zero(g, m1, base)
    full = align_graded(g, m1, phi, 2)
    assert len(full) == len(g)


def test_degree_zero_derivations_of_abelian():
    module = SuperSpace([BasisVector("e1", 0, -1), BasisVector("e2", 0, -1)])
    act = degree_zero_derivations(abelian_negative(module))
    assert len(act.algebra) == 4  # gl(2)


def test_degree_zero_derivations_hei2():
    act = degree_zero_derivations(build_hei(2, 0))
    assert len(act.algebra) == 4  # csp(2)
    assert act.algebra.check_super_jacobi() == []


def test_minkowski_der0_contains_conformal_g0():
    neg = build_minkowski_negative(1)
    der = degree_zero_derivations(neg)
    dim = len(neg)
    der_vecs = [
        {r * dim + c: v for (r, c), v in m.items()} for m in der.matrices
    ]
    solver = SpanSolver(der_vecs, dim * dim)
    conf = build_minkowski_g0(1, "conformal")
    assert conf.negative_indices() == list(range(dim))
    # ad h on g_minus, flattened as the derivation matrices are
    for h in conf.component_indices(0):
        vec = {r * dim + c: v for c in range(dim) for r, v in conf._table.get((h, c), {}).items()}
        assert solver.contains(vec)


def test_minkowski_reduced_prolong_g1_zero():
    nonpos = build_minkowski_g0(1, "reduced")
    res = prolong_nonpositive(nonpos, 2)
    assert res.component_dims()[1] == 0
    assert res.component_dims()[2] == 0


def test_minkowski_conformal_prolong_dims():
    nonpos = build_minkowski_g0(1, "conformal")
    res = prolong_nonpositive(nonpos, 3)
    dims = res.component_dims()
    assert dims[1] == 4 and dims[2] == 4
    assert dims[3] == 0
    assert dims[-1] == 4 and dims[-2] == 4 and dims[0] == 8


def test_realified_prolong_matches_realified_complex_contact():
    # two k(1|2)^R constructions: realified complex span vs real generalized prolong
    kC = contact_algebra(0, 2, 2, field=FIELD_QI)
    kR = realify(kC)
    heiC = build_hei(0, 2, field="Q(i)")
    heiR = realify(heiC)
    act = realify_action(degree_zero_derivations(heiC))
    # the realified cosp action, on the module basis named as in realify(heiC)
    res = prolong_pair(Action(act.algebra, heiR.space, act.matrices), 2, heiR)
    dims_prolong = res.component_dims()
    dims_contact = {d: len(kR.component_indices(d)) for d in sorted(set(b.degree for b in kR.space.basis))}
    assert dims_prolong == dims_contact


def test_nonfaithful_rejected():
    # a g0 element acting by the zero matrix makes the action not faithful
    g = from_matrices([("E", 0, None, {(0, 0): rational(1)})], [0], field="Q")
    act = tautological_action(g)
    with pytest.raises(ProlongError, match="faithful"):
        prolong_pair(Action(g, act.module, [{}]), 1)


def test_zero_matrix_is_not_a_linear_algebra_generator():
    with pytest.raises(ValueError, match="linearly independent"):
        from_matrices([("Z", 0, None, {})], [0, 0], field="Q")


def test_contact_algebras_accept_field_names_and_reject_unknown_fields():
    named = contact_algebra(0, 2, 4, field="Q(i)")
    assert named.field is FIELD_QI
    assert named.to_document() == contact_algebra(0, 2, 4, field=FIELD_QI).to_document()
    named = pericontact_algebra(1, 2, field="Q(i)")
    assert named.field is FIELD_QI
    assert named.to_document() == pericontact_algebra(1, 2, field=FIELD_QI).to_document()
    for bad in ("Q(j)", 7):
        with pytest.raises(ValueError, match="unknown field"):
            contact_algebra(0, 2, 2, field=bad)
        with pytest.raises(ValueError, match="unknown field"):
            pericontact_algebra(1, 2, field=bad)


def test_prolong_rejects_a_bad_max_degree():
    nonpos = build_minkowski_g0(1, "reduced")
    # -1 used to drop g_0 silently and True was taken as 1
    with pytest.raises(ValueError, match="max_degree"):
        prolong_nonpositive(nonpos, -1)
    for bad in (True, False, 1.5, "2", None):
        with pytest.raises(TypeError, match="max_degree"):
            prolong_nonpositive(nonpos, bad)
    assert prolong_nonpositive(nonpos, 0).component_dims() == {-2: 4, -1: 4, 0: 6}


def _rational_candidate_blocks(coords, k, weights):
    """The candidate blocks grouped and keyed on the weights' own scalars, sorted by str."""
    index, _ = field_basis_index(coords, k)
    blocks = {}
    for v, m in index:
        par = (mono_parity(m, coords) + coords.parities[v]) % 2
        wt = list(weights[v])
        for var, e in m:
            for j in range(len(wt)):
                wt[j] = wt[j] - e * weights[var][j]
        blocks.setdefault((par, tuple(wt)), []).append((v, m))
    return dict(sorted(blocks.items(), key=lambda kv: (kv[0][0], str(kv[0][1:]))))


def _negative_coords_and_weights(g):
    neg = g.negative_indices()
    coords = Coords([g.ident(k) for k in neg], [g.parity(k) for k in neg], [-g.degree(k) for k in neg])
    return coords, [g.space.basis[k].weight for k in neg]


def test_candidate_blocks_on_integer_weights_keep_the_rational_keys_and_order():
    k12R = realify(contact_algebra(0, 2, 2, field=FIELD_QI))
    cases = []
    for g in (build_minkowski_g0(2, "conformal"), k12R):
        coords, weights = _negative_coords_and_weights(g)
        cases.append((coords, weights))
        # the same weights with denominators, and Gaussian ones with an imaginary part
        for c in (rational(2, 3), gaussian(1, 2) / 3):
            cases.append((coords, [tuple(x * c for x in w) for w in weights]))
    # k(1|2)^R mixes Fraction and GaussianRational weights
    assert {type(x).__name__ for x in cases[3][1][1] + cases[3][1][0]} == {"Fraction", "GaussianRational"}
    for coords, weights in cases:
        for k in (1, 2, 3):
            got = _candidate_blocks(coords, k, weights)
            want = _rational_candidate_blocks(coords, k, weights)
            assert list(got.items()) == list(want.items())
            # the keys carry the same scalar types: their str (the sort key) agrees
            assert [str(key) for key in got] == [str(key) for key in want]


def _nonpositive_cases():
    # odd g0 elements (hei(2|1), ab(1)), QQ(i) scalars, a g0 with weights (Minkowski N=1) and a depth-1 case
    for g in (build_hei(0, 2), build_hei(2, 1), build_ab(1), build_hei(2, 0, field="Q(i)")):
        yield g.name, combine_nonpositive(g, degree_zero_derivations(g))
    yield "mink1-conformal", build_minkowski_g0(1, "conformal")
    act = gl_action(1, 1)
    yield "gl(1|1)", combine_nonpositive(abelian_negative(act.module), act)


def test_degree_zero_fields_are_the_formula_and_the_only_degree_zero_solution():
    for name, nonpos in _nonpositive_cases():
        coords, neg_fields = realize_negative(nonpos)
        fields = realize_degree_zero(nonpos, coords, neg_fields)
        assert_degree_zero_fields_follow_the_formula(nonpos, coords, fields)
        # uniqueness: no nonzero degree-0 field, linear or quadratic, brackets every X_e to 0
        cand = list(field_basis_index(coords, 0)[0])
        cols, total = [{} for _ in cand], 0
        for e in nonpos.negative_indices():
            idx, dim = field_basis_index(coords, nonpos.degree(e))
            for j, (v, m) in enumerate(cand):
                Y = VectorField.from_terms(coords, {v: {m: coords.field.one}})
                cols[j].update({total + pos: c for pos, c in Y.bracket(neg_fields[e]).coordinates(idx).items()})
            total += dim
        assert SpanSolver(cols, total).rank == len(cand), name
    assert any(nonpos.parity(h) for _, nonpos in _nonpositive_cases() for h in nonpos.component_indices(0))


def test_the_fixture_checked_the_prolongations_of_this_file():
    before = len(FORMULA_CHECKS)
    g = build_hei(0, 2)
    prolong_pair(degree_zero_derivations(g), 1, g)
    assert FORMULA_CHECKS[before:] == [len(degree_zero_derivations(g).algebra)]


def test_a_realization_makes_one_field_bracket_per_checked_pair(monkeypatch):
    calls = []
    bracket = VectorField.bracket

    def counted(X, Y):
        calls.append(1)
        return bracket(X, Y)

    monkeypatch.setattr(VectorField, "bracket", counted)
    for name, nonpos in _nonpositive_cases():
        n_neg, n_zero = len(nonpos.negative_indices()), len(nonpos.component_indices(0))
        calls.clear()
        coords, neg_fields = realize_negative(nonpos)
        realize_degree_zero(nonpos, coords, neg_fields)
        assert len(calls) == n_neg**2 + n_zero * (n_neg + n_zero), name


def _hei2_action(matrices):
    """hei(2|0) = span(p_1, q_1, z) with one even degree-0 generator per matrix."""
    g0 = LieSuperAlgebra(SuperSpace([BasisVector(f"H{k}", 0, 0) for k in range(len(matrices))]), {})
    return build_hei(2, 0), Action(g0, build_hei(2, 0).space, matrices)


def test_prolong_rejects_an_algebra_without_a_negative_part():
    g0 = LieSuperAlgebra(SuperSpace([BasisVector("h", 0, 0)]), {})
    with pytest.raises(ProlongError, match="^no negative part$"):
        prolong_nonpositive(g0, 1)


def test_prolong_rejects_a_grading_deeper_than_two():
    deep = LieSuperAlgebra(SuperSpace([BasisVector("a", 0, -1), BasisVector("b", 0, -3)]), {})
    with pytest.raises(ProlongError, match=r"^only depth <= 2 gradings are supported$"):
        prolong_nonpositive(deep, 1)


def test_generalized_prolong_rejects_an_action_that_breaks_the_grading():
    # p_1 -> z sends degree -1 to degree -2
    g, act = _hei2_action([{(2, 0): rational(1)}])
    with pytest.raises(ProlongError, match=r"^action does not preserve the grading: \('H0', 'p_1', 'z'\)"):
        prolong_pair(act, 1, g)


def test_generalized_prolong_rejects_a_g0_that_does_not_represent():
    # g0 abelian, but [diag(1, -1, 0), E_pq] = 2 E_pq; the degree-0 realization checks [X_H0, X_H1]
    g, act = _hei2_action([{(0, 0): rational(1), (1, 1): rational(-1)}, {(0, 1): rational(1)}])
    assert representation_failures(act) == [("H0", "H1"), ("H1", "H0")]
    with pytest.raises(ProlongError, match=r"^degree-0 realization failed at \[H0,H1\]$"):
        prolong_pair(act, 1, g)


def test_generalized_prolong_rejects_a_g0_that_does_not_act_by_derivations():
    # p_1 -> p_1, q_1 -> 0, z -> 0: a representation that keeps the grading, but
    # H[p_1, q_1] = 0 while [H p_1, q_1] + [p_1, H q_1] = z
    g, act = _hei2_action([{(0, 0): rational(1)}])
    assert representation_failures(act) == []
    with pytest.raises(ProlongError, match=r"^degree-0 realization failed at \[H0,p_1\]$"):
        prolong_pair(act, 1, g)


def test_prolong_rejects_a_bracket_that_breaks_the_grading():
    # [h, a] = h sends degree -1 into degree 0; this used to fail with a bare KeyError
    g = LieSuperAlgebra(SuperSpace([BasisVector("a", 0, -1), BasisVector("h", 0, 0)]), {(1, 0): {1: rational(1)}})
    with pytest.raises(ProlongError, match=r"^action does not preserve the grading: \('h', 'a', 'h'\)$"):
        prolong_nonpositive(g, 1)


def test_prolong_rejects_a_g0_that_does_not_act_faithfully():
    # [H0, H1] = H1 with H0 the grading derivation of hei(2|0) and H1 acting by 0:
    # a representation by derivations, whose realization would drop [H0, H1] = H1
    g0 = LieSuperAlgebra(SuperSpace([BasisVector("H0", 0, 0), BasisVector("H1", 0, 0)]), {(0, 1): {1: rational(1)}})
    hei = build_hei(2, 0)
    act = Action(g0, hei.space, [{(0, 0): rational(1), (1, 1): rational(1), (2, 2): rational(2)}, {}])
    assert representation_failures(act) == []
    with pytest.raises(ProlongError, match="^g0 does not act faithfully on g_minus$"):
        prolong_pair(act, 1, hei)


def test_prolong_rejects_a_positive_or_missing_degree():
    # a truncated contact algebra used to be taken, its positive part ignored
    with pytest.raises(ProlongError, match=r"^prolong needs degrees <= 0: 'K_\{tξ_1\}' has degree 1$"):
        prolong_nonpositive(contact_algebra(0, 2, 2), 2)
    ungraded = LieSuperAlgebra(SuperSpace([BasisVector("a", 0, -1), BasisVector("h", 0, None)]), {})
    with pytest.raises(ProlongError, match=r"^prolong needs degrees <= 0: 'h' has degree None$"):
        prolong_nonpositive(ungraded, 1)


def test_prolong_rejects_what_is_not_an_algebra():
    g = build_hei(2, 0)
    for bad in (g.to_document(), (g, degree_zero_derivations(g)), None):
        with pytest.raises(TypeError, match="^prolong: nonpos must be a LieSuperAlgebra"):
            prolong_nonpositive(bad, 1)
