import pytest

from superalg import polyvf, prolong
from superalg.algebra import LieSuperAlgebra, from_matrices, realify
from superalg.constructors import (
    abelian_negative,
    build_ab,
    build_gl,
    build_hei,
    build_complexified_minkowski,
    build_minkowski_g0,
    build_minkowski_negative,
    build_q,
    build_sl,
    combine_nonpositive,
)
from superalg.contact import contact_algebra, pericontact_algebra
from superalg.polyvf import Coords, VectorField, coordinate_field, field_basis_index, mono_parity, monomials_of_degree
from superalg.prolong import (
    ProlongError,
    algebra_of_fields,
    commuting_frame,
    degree_zero_derivations,
    homotopy_field,
    prolong_nonpositive,
    realize_degree_zero,
    realize_negative,
)
from superalg.cohomology import h2_by_degree
from superalg.linalg import SpanSolver, row_space_basis
from superalg.scalars import FIELD_QI, ZERO, gaussian, rational
from superalg.spaces import BasisVector, SuperSpace

from oracles import (
    canonical_sha256,
    candidate_prolongation,
    der0_failures,
    realization_failures,
    representation_failures,
)


def prolong_pair(g0, max_degree, g_minus=None):
    """Prolong g_minus + g0, g0 acting by its .matrices; g_minus defaults to the abelian algebra on its columns."""
    if g_minus is None:
        g_minus = abelian_negative(g0.row_parity)
    return prolong_nonpositive(combine_nonpositive(g_minus, g0, g0.matrices), max_degree)


def prolongation_failures(res):
    """realization_failures on a ProlongResult: its algebra against its realized fields up to its truncation."""
    g = res.algebra
    return realization_failures(g, [res.realization[g.ident(k)] for k in range(len(g))], res.coords, res.truncation)


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

def gl_g0(m, n):
    return build_gl(m, n, field="Q")


def sp2_g0():
    # sp(2) = sl(2) preserving the symplectic form on Q^2
    gens = [
        ("H", 0, None, {(0, 0): rational(1), (1, 1): rational(-1)}),
        ("X", 0, None, {(0, 1): rational(1)}),
        ("Y", 0, None, {(1, 0): rational(1)}),
    ]
    return from_matrices(gens, [0, 0], field="Q", name="sp(2)")


def sp4_g0():
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
    return from_matrices(gens, [0, 0, 0, 0], field="Q", name="sp(4)")


def o3_g0():
    gens = [
        ("R1", 0, None, {(0, 1): rational(1), (1, 0): rational(-1)}),
        ("R2", 0, None, {(0, 2): rational(1), (2, 0): rational(-1)}),
        ("R3", 0, None, {(1, 2): rational(1), (2, 1): rational(-1)}),
    ]
    return from_matrices(gens, [0, 0, 0], field="Q", name="o(3)")


def test_vect2_first_prolong():
    g0 = gl_g0(2, 0)
    res = prolong_pair(g0, 1)
    assert res.component_dims()[1] == 6  # S^2(V*) x V


def test_h2_pattern_sp2():
    g0 = sp2_g0()
    res = prolong_pair(g0, 1)
    assert res.component_dims()[1] == 4  # S^3 V*
    assert res.algebra.check_super_jacobi() == []


def test_sp4_prolong_and_h2():
    # the symplectic form's degree-1 classes: dim H^2 = 24 - 20 = 4 = dim L^3 V*
    g0 = sp4_g0()
    res = prolong_pair(g0, 2)
    assert res.component_dims() == {-1: 4, 0: 10, 1: 20, 2: 35}
    report = h2_by_degree(res.algebra, (1, 2))
    dims = {
        d: tuple(report["degrees"][d][key] for key in ("dim_Z2", "dim_B2", "dim_H2"))
        for d in ("1", "2")
    }
    assert dims == {"1": (24, 20, 4), "2": (45, 45, 0)}


def test_metric_rigidity_o3():
    g0 = o3_g0()
    res = prolong_pair(g0, 1)
    assert res.component_dims()[1] == 0


def test_gl_prolong_is_full_polynomial_field_space():
    # (id, gl(m|n))_k = S^{k+1}(V*) x V for m+n <= 3, k <= 3
    for (m, n) in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (1, 2), (3, 0)):
        g0 = gl_g0(m, n)
        res = prolong_pair(g0, 3)
        coords = Coords([f"x_{c + 1}" for c in range(m + n)], g0.row_parity)
        for k in range(1, 4):
            expected = len(monomials_of_degree(coords, k + 1)) * (m + n)
            assert res.component_dims()[k] == expected, (m, n, k)


def test_prolong_brackets_match_realization():
    res = prolong_pair(gl_g0(1, 1), 2)
    assert prolongation_failures(res) == []


def _realization_cases():
    for N, degree in ((1, 3), (2, 2)):
        for case in ("conformal", "reduced"):
            yield f"mink{N}-{case}", lambda N=N, case=case, degree=degree: prolong_nonpositive(
                build_minkowski_g0(N, case), degree
            )
    yield "gl(1|1)", lambda: prolong_pair(gl_g0(1, 1), 3)
    yield "hei(2|1)", lambda: _prolong_with_der0(build_hei(2, 1))
    yield "k(1|2)^R", lambda: prolong_nonpositive(realify(contact_algebra(0, 2, 0, field=FIELD_QI)), 2)
    yield "hei~", lambda: _prolong_with_der0(_twisted_heisenberg())


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in _realization_cases()])
def test_every_bracket_prolong_derives_is_the_bracket_of_the_realized_fields(build):
    # prolong brackets no positive field after the certificate: each
    # [X_a, X_b] up to the truncation, by VectorField.bracket, against the table
    assert prolongation_failures(build()) == []


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


def test_algebra_of_fields_rejects_a_span_that_is_not_transitive():
    # y d_y commutes with the one negative field d_x, so the brackets of the
    # degree-0 fields could not be read off their brackets with d_x
    coords = Coords(["x", "y"], [0, 0], [1, 1])
    x, y = coords.var(0), coords.var(1)
    gens = [
        ("D", 0, -1, coordinate_field(coords, 0)),
        ("E", 0, 0, VectorField(coords, {0: x})),
        ("F", 0, 0, VectorField(coords, {1: y})),
    ]
    message = r"^the negative fields are not transitive: their constants span 1 of 2 d_v$"
    with pytest.raises(ProlongError, match=message):
        algebra_of_fields(coords, gens, 0)


def test_gl_prolong_components_are_g0_submodules():
    g0 = gl_g0(1, 1)
    res = prolong_pair(g0, 2)
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
        doc = prolong_pair(gl_g0(m, n), 3).algebra.to_document()
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


def _pinned_parity_block_prolongations():
    """(name, result, sha256): g_- + der0 with blocks by parity alone, over QQ and a realified QQ(i)."""
    for g, sha256 in (
        (build_hei(2, 1), "bdd4c9c521817920f1965a789141cb6a26d29fa08984a7afbc4e0b3c00d2af6f"),
        (build_hei(0, 3), "0911be9395de805b7cb3419013e79b5fb29e66dcc2931e274148a31f59d2925b"),
        (build_ab(1), "ab948ce7d10452a13668f93eed1e084ba6237cf48afbf75489de18df74678702"),
    ):
        yield g.name, prolong_pair(degree_zero_derivations(g), 3, g), sha256
    heiC = build_hei(2, 0, field="Q(i)")
    der = degree_zero_derivations(heiC)
    res = prolong_nonpositive(realify(combine_nonpositive(heiC, der, der.matrices)), 2)
    yield "hei(2|0)^R", res, "ec7606fe659e4a9583623013566b7190b733d7b6bdf2176bfca1b306b27d9eab"


def test_parity_block_prolongation_documents_are_pinned():
    # canonical JSON of the whole document, realization included: the basis
    # order of g_k with odd and even fields mixed, and no weights
    for name, res, sha256 in _pinned_parity_block_prolongations():
        assert canonical_sha256(res.to_document()) == sha256, name


def _prolong_with_der0(g):
    """Prolong g + der0(g) to degree 3."""
    return prolong_pair(degree_zero_derivations(g), 3, g)


def _twisted_heisenberg():
    """hei(2|1) over Q(i) on a basis with complex constants: [a, b] = -2i z, [ξ, ξ] = (1+i) z."""
    basis = [BasisVector("a", 0, -1), BasisVector("b", 0, -1), BasisVector("ξ", 1, -1), BasisVector("z", 0, -2)]
    return LieSuperAlgebra(
        SuperSpace(basis), {(0, 1): {3: gaussian(0, -2)}, (2, 2): {3: gaussian(1, 1)}}, field="Q(i)", name="hei~"
    )


@pytest.mark.parametrize(
    "build, dims, sha256",
    [
        (
            lambda: prolong_nonpositive(build_minkowski_g0(1, "reduced"), 3),
            {-2: 4, -1: 4, 0: 6, 1: 0, 2: 0, 3: 0},
            "ea95b8df290cf71e163aff14290e03b353f464486afaa1887fc39c32cc8f6d28",
        ),
        (
            lambda: prolong_nonpositive(build_minkowski_g0(2, "reduced"), 2),
            {-2: 4, -1: 8, 0: 6, 1: 0, 2: 0},
            "4894feb77ffb38579e496ecae98d4f93896294a427c2f38643e6fe802a7e350b",
        ),
        (
            lambda: prolong_pair(build_sl(2, 1), 2),
            {-1: 3, 0: 8, 1: 12, 2: 16},
            "030bcae5750fd5094d8716609c72d1249ab01d7809ff1bac53ec9cad91f72609",
        ),
        (
            lambda: _prolong_with_der0(build_hei(2, 1, field="Q(i)")),
            {-2: 1, -1: 3, 0: 6, 1: 10, 2: 15, 3: 21},
            "e60d580c104dabf1a8a4a7edd275310f057db8d7055521bfc6a5e92bf0565989",
        ),
        (
            lambda: _prolong_with_der0(build_hei(0, 3, field="Q(i)")),
            {-2: 1, -1: 3, 0: 4, 1: 4, 2: 4, 3: 4},
            "d8602ccf24ca1d2808655d9964e376cf6fc6fe309b721b4dedc2aa77afb132a4",
        ),
        (
            lambda: _prolong_with_der0(build_hei(2, 2, field="Q(i)")),
            {-2: 1, -1: 4, 0: 9, 1: 16, 2: 25, 3: 36},
            "8faba6a1a6b35fb51bfee2c89a1f710ad933dc0a705ccc3af33e7510a205cb4d",
        ),
        (
            lambda: _prolong_with_der0(_twisted_heisenberg()),
            {-2: 1, -1: 3, 0: 6, 1: 10, 2: 15, 3: 21},
            "6f5ccb4f8de0bf40162fb183d27d3904f9780beb3b158499dfa7229f546fbd91",
        ),
    ],
    ids=["mink1-reduced_3", "mink2-reduced_2", "sl(2|1)_2", "hei(2|1)^C_3", "hei(0|3)^C_3", "hei(2|2)^C_3", "hei~_3"],
)
def test_reduced_sl_and_gaussian_heisenberg_prolongation_documents_are_pinned(build, dims, sha256):
    # canonical JSON of the whole document, realization included: the
    # reduced Minkowski algebras stop at g_0, sl(2|1) acts on an abelian
    # C^{2|1}, and each hei is joined with its der0 over Q(i); hei~ has
    # constants with an imaginary part
    res = build()
    assert res.component_dims() == dims
    assert canonical_sha256(res.to_document()) == sha256


def test_heisenberg_prolong_matches_contact_k3():
    hei = build_hei(2, 0)
    der = degree_zero_derivations(hei)
    assert len(der) == 4  # csp(2)
    res = prolong_pair(der, 2, hei)
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
        der = degree_zero_derivations(hei)
        res = prolong_pair(der, 2, hei)
        k = contact_algebra(n2 // 2, m, 2)
        kdims = {d: len(k.component_indices(d)) for d in k.degrees()}
        assert res.component_dims() == kdims, (n2, m)


def test_heisenberg_contact_structure_constants_align():
    # the form convention differs between the abstract hei and the contact
    # realization: K-brackets give [K_p, K_q] = -K_1 but [K_th, K_th] = +K_1,
    # so the first generator of each symplectic pair maps with a sign
    for (n2, m) in ((2, 1), (0, 2), (2, 0)):
        hei = build_hei(n2, m)
        der = degree_zero_derivations(hei)
        res = prolong_pair(der, 2, hei)
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
    der = degree_zero_derivations(ab)
    res = prolong_pair(der, 2, ab)
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
    der = degree_zero_derivations(abelian_negative([0, 0]))
    assert len(der) == 4  # gl(2)


def _der0_cases():
    for field in ("Q", "Q(i)"):
        for n2, m in ((2, 0), (0, 2), (2, 1)):
            yield f"hei({n2}|{m}) over {field}", build_hei(n2, m, field=field)
    for n in (1, 2):
        yield f"ab({n})", build_ab(n)
    yield "abelian(0|1)", abelian_negative([0, 1])
    for N in (1, 2):
        yield f"mink{N}", build_minkowski_negative(N)


@pytest.mark.parametrize("g_minus", [pytest.param(g, id=name) for name, g in _der0_cases()])
def test_degree_zero_derivations_match_the_dense_leibniz_oracle(g_minus):
    der = degree_zero_derivations(g_minus)
    assert len(der) > 0
    assert der0_failures(g_minus, der) == []


def test_degree_zero_derivations_rejects_a_vector_of_degree_zero_or_more():
    for degree in (0, 1):
        g = LieSuperAlgebra(SuperSpace([BasisVector("a", 0, -1), BasisVector("h", 0, degree)]), {})
        with pytest.raises(ValueError, match=rf"^degree_zero_derivations needs degrees < 0: 'h' has degree {degree}$"):
            degree_zero_derivations(g)


def test_degree_zero_derivations_hei2():
    der = degree_zero_derivations(build_hei(2, 0))
    assert len(der) == 4  # csp(2)
    assert der.check_super_jacobi() == []


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
    der = degree_zero_derivations(heiC)
    res = prolong_nonpositive(realify(combine_nonpositive(heiC, der, der.matrices)), 2)
    dims_prolong = res.component_dims()
    dims_contact = {d: len(kR.component_indices(d)) for d in sorted(set(b.degree for b in kR.space.basis))}
    assert dims_prolong == dims_contact


def test_nonfaithful_rejected():
    # a g0 element acting by the zero matrix makes the action not faithful
    g = from_matrices([("E", 0, None, {(0, 0): rational(1)})], [0], field="Q")
    with pytest.raises(ProlongError, match="faithful"):
        prolong_nonpositive(combine_nonpositive(abelian_negative(g.row_parity), g, [{}]), 1)


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


def _candidate_keys(coords, k, weights):
    """{(v, m): (parity, weight)} for each degree-k monomial field m d_v, in field_basis_index order.

    The weight is weights[v] minus e * weights[var] for each var^e in m, on
    the weights' own scalars.
    """
    keys = {}
    for v, m in field_basis_index(coords, k)[0]:
        wt = list(weights[v])
        for var, e in m:
            for j in range(len(wt)):
                wt[j] = wt[j] - e * weights[var][j]
        keys[v, m] = ((mono_parity(m, coords) + coords.parities[v]) % 2, tuple(wt))
    return keys


def _rational_candidate_blocks(coords, k, weights):
    """The candidate blocks grouped and keyed on the weights' own scalars, sorted by str."""
    blocks = {}
    for vm, key in _candidate_keys(coords, k, weights).items():
        blocks.setdefault(key, []).append(vm)
    return dict(sorted(blocks.items(), key=lambda kv: (kv[0][0], str(kv[0][1:]))))


def _blockwise_basis(fields, coords, k, weights):
    """The oracle for _block_bases: each field split by block, each block's parts brought to RREF on their own."""
    out = []
    for cand in _rational_candidate_blocks(coords, k, weights).values():
        pos = {vm: j for j, vm in enumerate(cand)}
        parts = [{pos[v, m]: c for v, t in X.terms.items() for m, c in t.items() if (v, m) in pos} for X in fields]
        for row in row_space_basis(parts, len(cand)):
            terms = {}
            for j, c in sorted(row.items()):
                v, m = cand[j]
                terms.setdefault(v, {})[m] = coords.field.one * c
            out.append(VectorField.from_terms(coords, terms))
    return out


def _block_cases():
    """(name, coordinate weights, result) for pinned prolongations and k(1|2)^R's, whose weights mix scalar types."""
    for name, res, _ in _pinned_parity_block_prolongations():
        # g_- + der0 carries no weights: blocks by parity alone
        yield name, [()] * len(res.coords), res
    for name, nonpos, degree in (
        ("mink1", build_minkowski_g0(1, "conformal"), 3),
        ("mink2", build_minkowski_g0(2, "conformal"), 2),
        ("k(1|2)^R", realify(contact_algebra(0, 2, 0, field=FIELD_QI)), 2),
    ):
        weights = [nonpos.space.basis[e].weight for e in nonpos.negative_indices()]
        yield name, weights, prolong_nonpositive(nonpos, degree)


def _positive_fields(res):
    g = res.algebra
    return {d: [res.realization[g.ident(k)] for k in g.component_indices(d)] for d in g.degrees() if d > 0}


def test_block_bases_equal_the_blocks_reduced_one_by_one():
    for name, weights, res in _block_cases():
        coords = res.coords
        lists = [weights]
        if name == "k(1|2)^R":
            assert {type(x).__name__ for w in weights for x in w} == {"Fraction", "GaussianRational"}
            # mixed weights: the document equals the blockwise one computed before the rows were sorted
            sha256 = "023f5e62d4116dcad5142eac713ff4e06a8755b001d6eb24993ce316b599e689"
            assert canonical_sha256(res.to_document()) == sha256
        if any(weights):
            # the same weights with denominators, and Gaussian ones with an imaginary part
            lists += [[tuple(x * c for x in w) for w in weights] for c in (rational(2, 3), gaussian(1, 2) / 3)]
        if name == "mink2":
            # the same values, every other coordinate's on GaussianRational
            lists.append([tuple(gaussian(x) for x in w) if c % 2 else w for c, w in enumerate(weights)])
        for wts in lists:
            types = {type(x) for w in wts for x in w}
            # a mix is ordered as on GaussianRational, whichever member a block's key is read from
            oracle_weights = [tuple(x + gaussian() for x in w) for w in wts] if len(types) > 1 else wts
            for k, basis in _positive_fields(res).items():
                # a spanning set that is not in RREF: each field plus the next
                fields = [X + Y for X, Y in zip(basis, basis[1:])] + basis[-1:]
                got = [repr(X.terms) for X in prolong._block_bases(fields, coords, k, wts)]
                assert got == [repr(X.terms) for X in _blockwise_basis(fields, coords, k, oracle_weights)], (name, k)
                if wts is weights:
                    assert got == [repr(X.terms) for X in basis], (name, k)


def test_each_positive_basis_field_lies_in_one_parity_and_weight_block():
    # the module docstring's reason why one RREF gives the blockwise basis
    for name, weights, res in _block_cases():
        for k, basis in _positive_fields(res).items():
            keys = _candidate_keys(res.coords, k, weights)
            for X in basis:
                assert len({keys[v, m] for v, t in X.terms.items() for m in t}) == 1, (name, k, X)


def _nonpositive_cases():
    # odd g0 elements (hei(2|1), ab(1)), QQ(i) scalars, a g0 with weights (Minkowski N=1) and a depth-1 case
    for g in (build_hei(0, 2), build_hei(2, 1), build_ab(1), build_hei(2, 0, field="Q(i)")):
        der = degree_zero_derivations(g)
        yield g.name, combine_nonpositive(g, der, der.matrices)
    yield "mink1-conformal", build_minkowski_g0(1, "conformal")
    g0 = gl_g0(1, 1)
    yield "gl(1|1)", combine_nonpositive(abelian_negative(g0.row_parity), g0, g0.matrices)


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
    assert FORMULA_CHECKS[before:] == [len(degree_zero_derivations(g))]


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
        # each unordered pair once: g_minus x g_minus, g_0 x g_minus, g_0 x g_0
        assert len(calls) == n_neg * (n_neg + 1) // 2 + n_zero * n_neg + n_zero * (n_zero + 1) // 2, name


def _abelian_g0(n):
    """An abelian g0 on n even generators H0, H1, ..., to act on hei(2|0) = span(p_1, q_1, z) by given matrices."""
    return LieSuperAlgebra(SuperSpace([BasisVector(f"H{k}", 0, 0) for k in range(n)]), {})


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
    nonpos = combine_nonpositive(build_hei(2, 0), _abelian_g0(1), [{(2, 0): rational(1)}])
    with pytest.raises(ProlongError, match=r"^action does not preserve the grading: \('H0', 'p_1', 'z'\)"):
        prolong_nonpositive(nonpos, 1)


def test_generalized_prolong_rejects_a_g0_that_does_not_represent():
    # g0 abelian, but [diag(1, -1, 0), E_pq] = 2 E_pq; the degree-0 realization checks [X_H0, X_H1]
    g0, matrices = _abelian_g0(2), [{(0, 0): rational(1), (1, 1): rational(-1)}, {(0, 1): rational(1)}]
    assert representation_failures(g0, matrices) == [("H0", "H1"), ("H1", "H0")]
    with pytest.raises(ProlongError, match=r"^degree-0 realization failed at \[H0,H1\]$"):
        prolong_nonpositive(combine_nonpositive(build_hei(2, 0), g0, matrices), 1)


def test_generalized_prolong_rejects_a_g0_that_does_not_act_by_derivations():
    # p_1 -> p_1, q_1 -> 0, z -> 0: a representation that keeps the grading, but
    # H[p_1, q_1] = 0 while [H p_1, q_1] + [p_1, H q_1] = z
    g0, matrices = _abelian_g0(1), [{(0, 0): rational(1)}]
    assert representation_failures(g0, matrices) == []
    with pytest.raises(ProlongError, match=r"^degree-0 realization failed at \[H0,p_1\]$"):
        prolong_nonpositive(combine_nonpositive(build_hei(2, 0), g0, matrices), 1)


def test_prolong_rejects_a_bracket_that_breaks_the_grading():
    # [h, a] = h sends degree -1 into degree 0; this used to fail with a bare KeyError
    g = LieSuperAlgebra(SuperSpace([BasisVector("a", 0, -1), BasisVector("h", 0, 0)]), {(1, 0): {1: rational(1)}})
    with pytest.raises(ProlongError, match=r"^action does not preserve the grading: \('h', 'a', 'h'\)$"):
        prolong_nonpositive(g, 1)


def test_prolong_rejects_weights_that_a_bracket_does_not_add():
    # hei(2|0) with wt(p_1) = wt(q_1) = 1 but wt(z) = 5: the (parity, weight)
    # blocks split by those weights, and g_1 came out 0 instead of 6
    weights = ((rational(1),), (rational(1),), (rational(5),))
    hei = build_hei(2, 0)
    space = SuperSpace([BasisVector(b.id, b.parity, b.degree, w) for b, w in zip(hei.space, weights)])
    weighted = LieSuperAlgebra(space, {(0, 1): {2: rational(1)}})
    der = degree_zero_derivations(weighted)
    assert prolong_pair(der, 1, hei).component_dims()[1] == 6
    with pytest.raises(ProlongError, match=r"^a bracket does not add the weights: \('p_1', 'q_1', 'z'\)$"):
        prolong_pair(der, 1, weighted)


def test_prolong_rejects_a_g0_that_does_not_act_faithfully():
    # [H0, H1] = H1 with H0 the grading derivation of hei(2|0) and H1 acting by 0:
    # a representation by derivations, whose realization would drop [H0, H1] = H1
    g0 = LieSuperAlgebra(SuperSpace([BasisVector("H0", 0, 0), BasisVector("H1", 0, 0)]), {(0, 1): {1: rational(1)}})
    matrices = [{(0, 0): rational(1), (1, 1): rational(1), (2, 2): rational(2)}, {}]
    assert representation_failures(g0, matrices) == []
    with pytest.raises(ProlongError, match="^g0 does not act faithfully on g_minus$"):
        prolong_nonpositive(combine_nonpositive(build_hei(2, 0), g0, matrices), 1)


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


def test_prolong_rejects_a_bracket_that_breaks_the_parities():
    # hei(2|0) with an odd z: [p_1, q_1] = z joins two even vectors to an odd
    # one; this used to fail in polyvf with "non-homogeneous vector field"
    hei = build_hei(2, 0)
    space = SuperSpace([BasisVector(b.id, 1 if b.id == "z" else b.parity, b.degree) for b in hei.space])
    odd_z = LieSuperAlgebra(space, {(0, 1): {2: rational(1)}})
    assert odd_z.check_grading() == [] and odd_z.check_parities() == [("p_1", "q_1", "z"), ("q_1", "p_1", "z")]
    with pytest.raises(ProlongError, match=r"^the bracket \[p_1,q_1\] has a term on z, off the parities$"):
        prolong_pair(degree_zero_derivations(odd_z), 1, odd_z)


def _oracle_cases():
    for n2, m in ((2, 1), (0, 3)):
        g = build_hei(n2, m)
        der = degree_zero_derivations(g)
        yield g.name, combine_nonpositive(g, der, der.matrices)
    g0 = gl_g0(1, 1)
    yield "gl(1|1)", combine_nonpositive(abelian_negative(g0.row_parity), g0, g0.matrices)
    yield "mink1-conformal", build_minkowski_g0(1, "conformal")


def test_the_prolongation_is_the_kernel_over_all_monomial_candidates():
    # completeness and soundness against the definition: the same g_k as the
    # kernel over every degree-k monomial field, with no blocks
    for name, nonpos in _oracle_cases():
        res = prolong_nonpositive(nonpos, 3)
        g = res.algebra
        fields = {d: [res.realization[g.ident(k)] for k in g.component_indices(d)] for d in g.degrees()}
        oracle = candidate_prolongation(res.coords, {d: f for d, f in fields.items() if d <= 0}, 3)
        for k in (1, 2, 3):
            idx, dim = field_basis_index(res.coords, k)
            got = [X.coordinates(idx) for X in fields.get(k, [])]
            want = [X.coordinates(idx) for X in oracle[k]]
            assert len(got) == len(want) == len(row_space_basis(got, dim)), (name, k)
            assert row_space_basis(got, dim) == row_space_basis(want, dim), (name, k)
    assert res.component_dims() == {-2: 4, -1: 4, 0: 8, 1: 4, 2: 4, 3: 0}


def _frame_cases():
    for N in (1, 2):
        yield f"mink{N}", build_minkowski_g0(N, "conformal")
        yield f"mink{N}^C", build_complexified_minkowski(N)
    for field in ("Q", "Q(i)"):
        yield f"hei(2|1) over {field}", build_hei(2, 1, field=field)


def test_the_commuting_frame_commutes_with_every_negative_field():
    for name, g in _frame_cases():
        coords, neg_fields = realize_negative(g)
        frame = commuting_frame(g, coords)
        assert sorted(frame) == list(range(len(coords))), name
        for t, L in frame.items():
            # a frame: L_t is d_t plus terms of higher coordinate degree
            assert L.terms[t] == {(): 1}, name
            assert all(coords.degree(v) > coords.degree(t) for v in L.terms if v != t), name
            for e, X in neg_fields.items():
                assert not L.bracket(X), (name, t, g.ident(e))


def test_the_negative_fields_weighted_by_degree_sum_to_the_euler_field():
    for name, g in _frame_cases():
        coords, neg_fields = realize_negative(g)
        total = VectorField(coords)
        for e, X in neg_fields.items():
            c = coords.index[g.ident(e)]
            x_e = coords.var(c).scale(coords.degree(c))
            total = total + VectorField(coords, {v: x_e * p for v, p in X.coeffs.items()})
        euler = VectorField(coords, {c: coords.var(c).scale(coords.degree(c)) for c in range(len(coords))})
        assert total == euler, name


def test_the_homotopy_formula_rebuilds_every_positive_field_from_its_brackets():
    # the pinned N=2 conformal prolongation: X = sum_t h_t L_t from the [X_e, X] alone
    nonpos = build_minkowski_g0(2, "conformal")
    res = prolong_nonpositive(nonpos, 2)
    g = res.algebra
    frame = commuting_frame(nonpos, res.coords)
    negative = {res.coords.index[g.ident(e)]: res.realization[g.ident(e)] for e in g.negative_indices()}
    positive = [k for k in range(len(g)) if g.degree(k) > 0]
    assert len(positive) == 12
    for k in positive:
        Z = res.realization[g.ident(k)]
        images = {c: X_e.bracket(Z) for c, X_e in negative.items()}
        assert homotopy_field(frame, g.degree(k), images) == Z, g.ident(k)


def test_a_field_outside_the_prolongation_fails_the_certificate(monkeypatch):
    # the stray term p_1^2 d_(p_1), of degree 1 but not a contact field, makes
    # some [X_e, Z] leave g_{1+deg e}
    build = prolong.homotopy_field

    def stray(frame, k, images):
        return build(frame, k, images) + VectorField.from_terms(next(iter(frame.values())).coords, {0: {((0, 2),): 1}})

    monkeypatch.setattr(prolong, "homotopy_field", stray)
    g = build_hei(2, 0)
    with pytest.raises(ProlongError, match=r"^certificate failed: \[p_1,g1\[0\]\] is not in g_0$"):
        prolong_pair(degree_zero_derivations(g), 1, g)


def _hei_with_der0():
    g = build_hei(2, 0)
    der = degree_zero_derivations(g)
    return combine_nonpositive(g, der, der.matrices)


def test_a_tampered_certified_constant_fails_the_closure(monkeypatch):
    # the first certified bracket [X_e, Z] with one constant doubled: the
    # Jacobi images of [D_1, g1[1]] then leave the span of the certified columns
    solve = prolong._solve_in
    calls = []

    def tampered(span, br):
        sol = solve(span, br)
        if not calls:
            j = next(iter(sol))
            sol = {**sol, j: 2 * sol[j]}
        calls.append(sol)
        return sol

    monkeypatch.setattr(prolong, "_solve_in", tampered)
    with pytest.raises(ProlongError, match=r"^bracket \[D_1,g1\[1\]\] is not closed in degree 1$"):
        prolong_nonpositive(_hei_with_der0(), 1)


def test_the_jacobi_step_derives_only_the_brackets_not_yet_known(monkeypatch):
    # prolong hands it the table of g_<=0 and algebra_of_fields every bracket
    # with a negative field; each is kept as given, never solved again
    derive = prolong._positive_brackets
    added = []

    class WriteOnce(dict):
        def __setitem__(self, key, value):
            assert key not in self, key
            added.append(key)
            super().__setitem__(key, value)

    def once(space, neg, known, max_degree, one):
        given = WriteOnce(known)
        derive(space, neg, given, max_degree, one)
        known.update(given)

    monkeypatch.setattr(prolong, "_positive_brackets", once)
    res = prolong_nonpositive(build_minkowski_g0(1, "conformal"), 2)
    g = res.algebra
    assert added and all(g.degree(a) >= 0 and g.degree(b) >= 0 and g.degree(a) + g.degree(b) >= 1 for a, b in added)
    added.clear()
    g = contact_algebra(0, 2, 2)
    assert added and all(g.degree(a) >= 0 and g.degree(b) >= 0 for a, b in added)


def test_dependent_certified_columns_are_rejected(monkeypatch):
    # g_1 with its first field listed twice: the certificate admits both
    # copies, and their stacked columns (ad_e Z)_e are equal
    build = prolong._block_bases

    def doubled(fields, coords, k, weights):
        basis = build(fields, coords, k, weights)
        return basis + basis[:1]

    monkeypatch.setattr(prolong, "_block_bases", doubled)
    with pytest.raises(ProlongError, match=r"^the certified brackets with g_minus are dependent on g_1$"):
        prolong_nonpositive(_hei_with_der0(), 1)


def test_prolong_brackets_no_field_after_the_certificate(monkeypatch):
    # N = 2 conformal to degree 2: the realization checks 12 * 13 / 2 + 11 * 12
    # + 11 * 12 / 2 = 276 unordered pairs and the certificate brackets each of
    # the 12 positive fields with the 12 of g_minus; every other bracket is
    # read off the certified constants
    calls = []
    bracket_terms = polyvf.bracket_terms

    def counted(*args):
        calls.append(1)
        return bracket_terms(*args)

    monkeypatch.setattr(polyvf, "bracket_terms", counted)
    monkeypatch.setattr(prolong, "bracket_terms", counted)
    res = prolong_nonpositive(build_minkowski_g0(2, "conformal"), 2)
    assert res.component_dims() == {-2: 4, -1: 8, 0: 11, 1: 8, 2: 4}
    assert len(calls) == 12 * 13 // 2 + 11 * 12 + 11 * 12 // 2 + 12 * 12 == 420


def test_a_jacobi_level_builds_its_solver_only_for_a_pair_it_solves(monkeypatch):
    # N = 2 conformal to degree 2: the field spans of g_-1, g_0 and g_1 and the
    # Jacobi levels d = 1 and 2; at d = 0 every pair of g_0 is in the table or
    # has phi = 0, so that level builds no solver
    g = build_minkowski_g0(2, "conformal")
    calls = []
    init = SpanSolver.__init__

    def counted(self, vectors, dim):
        calls.append(1)
        init(self, vectors, dim)

    monkeypatch.setattr(SpanSolver, "__init__", counted)
    prolong_nonpositive(g, 2)
    assert len(calls) == 5


@pytest.mark.parametrize(
    "order, late",
    [
        ("DHE", "'E' of degree 0 follows degree 1"),
        ("HED", "'E' of degree 0 follows degree 1"),
        ("EDH", "'D' of degree -1 follows degree 0"),
    ],
)
def test_algebra_of_fields_rejects_gens_out_of_degree_order(order, late):
    # read in the order D, H, E the span once lost [E, H] = H; the other two
    # orders failed with a message about dependent certified brackets
    coords, gens = _sl2_fields()
    by_id = {gen[0]: gen for gen in gens}
    with pytest.raises(ValueError, match=f"^algebra_of_fields needs gens in ascending degree: {late}$"):
        algebra_of_fields(coords, [by_id[ident] for ident in order], 1)
