"""Prolongation of a nonpositively graded Lie superalgebra g_<=0 = g_minus + g_0.

prolong(nonpos, max_degree) is the one method: Tanaka's generalized
prolongation (J. Math. Kyoto Univ. 10 (1970) 1-82) for g_minus of depth <= 2,
Cartan's at depth 1; constructors.combine_nonpositive joins a pair (g_minus,
action of g_0) into its input.  g_<=0 is realized by polynomial vector fields
on coordinates x_a dual to the basis of g_minus, read off the table c^t_{kb}:

  X_k = [k in g_minus] d_k - lam sum_{b in B} (-1)^{p_k p_b} c^t_{kb} x_b d_t

with lam = 1/2 and B = g_-1 for k in g_minus, lam = 1 and B = g_minus for k
in g_0.  Nothing is solved for (realize_degree_zero says why the degree-0
field is the only one); instead every [X_i, X_j] with i in g_minus or g_0 is
checked against the table.  Positive components are computed degree by degree:

  g_k = { X of degree k : [X, realization of g_j] lies in g_{k+j} for all j<0 }

Within each (parity, weight) block of degree-k candidate fields m d_v, kept
as (v, m) pairs, this is the kernel of the map sending X to the residuals of
its brackets [X, g_j] modulo the realized span of g_{k+j}; the same
computation serves depth 1 and 2.  The bracket on the result is the bracket
of the realized fields, re-expanded in the computed basis; closure is
checked, never assumed.

Every bracket of the positive components and of the closure runs on integer
term dicts through polyvf.bracket_terms.  Each negative field X_e is cleared
once to den_e X_e with integer coefficients.  Column j of the constraints of
e is then the residual of [m_j d_(v_j), den_e X_e], which is den_e times the
residual of [m_j d_(v_j), X_e]: every row of the constraints of e is scaled
by the same positive den_e.  That leaves the row space, hence the kernel and its RREF,
unchanged, so the component bases come out exactly as with X_e itself.

The residuals stay on the integers as well.  SpanSolver.reduce returns each
one cleared, (den, t) with t = den times the residual, and an empty bracket
is not reduced at all.  Column j is filled with its residuals times D_j, the
lcm of their dens, so the constraint matrix is the true one with column j
scaled by D_j.  A column scaling does change the kernel, but only by the
same scaling: u solves the scaled system exactly when (D_j u_j) solves the
true one.  So the few kernel vectors are multiplied back by D_j, and since
_fields_from_coeffs takes the RREF of their span, the component bases are
unchanged.  Candidate blocks are grouped on integer weights, the coordinate
weights cleared by one common denominator; only the block keys carry the
weights with their own scalars, because the str of those keys orders the
blocks, and that order fixes the basis order.

One closure assembly, algebra_of_fields, turns realized fields into structure
constants for both the prolongations here and the contact and pericontact
spans of contact.py.  It clears each basis field X once to (den_X, den_X X),
solves the integer bracket of two cleared fields in the span of its degree and
divides only the solution by den_X den_Y.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Tuple

from .algebra import Element, LieSuperAlgebra, from_matrices
from .constructors import Action, check_ints
from .linalg import SpanSolver, kernel_basis, row_space_basis
from .polyvf import (
    ONE_MONO,
    Coords,
    VectorField,
    bracket_terms,
    clear_field,
    field_basis_index,
    mono_parity,
)
from .scalars import ZERO, cleared, common_denominator, rational
from .spaces import BasisVector, SuperSpace

HALF = rational(1, 2)


class ProlongError(Exception):
    pass


class ProlongResult:
    """A graded algebra spanning degrees -d..truncation plus its field realization."""

    def __init__(self, algebra: LieSuperAlgebra, realization: Dict[str, VectorField], coords: Coords, truncation: int):
        self.algebra = algebra
        self.realization = realization
        self.coords = coords
        self.truncation = truncation

    def component_dims(self):
        g = self.algebra
        lo = min(g.degrees())
        return {d: len(g.component_indices(d)) for d in range(lo, self.truncation + 1)}

    def to_document(self) -> dict:
        doc = self.algebra.to_document()
        doc["format"] = "prolong/1"
        doc["truncation"] = self.truncation
        doc["realization"] = {
            ident: str(field) for ident, field in sorted(self.realization.items())
        }
        return doc


def realize_negative(nonpos: LieSuperAlgebra) -> Tuple[Coords, Dict[int, VectorField]]:
    """Realize g_minus on its dual coordinates: X_k = d_k - 1/2 sum_b (-1)^{p_k p_b} c^t_{kb} x_b d_t.

    b runs over g_-1, so a degree -2 vector, which brackets g_-1 to 0, maps to
    d_k.  Every [X_i, X_j] with i, j in g_minus is checked against the table.
    """
    neg = nonpos.negative_indices()
    if not neg:
        raise ProlongError("no negative part")
    if min(nonpos.degree(k) for k in neg) < -2:
        raise ProlongError("only depth <= 2 gradings are supported")
    names = [nonpos.ident(k) for k in neg]
    parities = [nonpos.parity(k) for k in neg]
    coords = Coords(names, parities, [-nonpos.degree(k) for k in neg], field=nonpos.field)
    pos_of = {k: c for c, k in enumerate(neg)}
    minus1 = [b for b in neg if nonpos.degree(b) == -1]
    fields = {k: _linear_field(nonpos, coords, pos_of, k, HALF, minus1) for k in neg}
    _check_homomorphism(nonpos, fields, neg, neg, "negative")
    return coords, fields


def realize_degree_zero(nonpos: LieSuperAlgebra, coords: Coords, neg_fields: Dict[int, VectorField]):
    """Realize g_0 by linear fields: X_h = -sum_b (-1)^{p_h p_b} c^t_{hb} x_b d_t, b over g_minus.

    The field is linear because in exponential coordinates an automorphism of
    G_minus is linear.  It is the only degree-0 field with [X_h, X_e] = X_[h,e]
    for all e: for a degree-0 Y the constant part of [Y, X_e] is, up to sign,
    the x_e column of Y's linear part, and a quadratic part q d_z brackets X_e
    to +-(d_e q) d_z, so a Y with [Y, X_e] = 0 for every e is 0.  Every
    [X_h, X_j], j in g_minus or g_0, is checked against the table: this
    rejects a g_0 that does not act by derivations or does not represent.
    """
    neg = nonpos.negative_indices()
    zero = nonpos.component_indices(0)
    pos_of = {k: c for c, k in enumerate(neg)}
    out = {h: _linear_field(nonpos, coords, pos_of, h, coords.field.one, neg) for h in zero}
    _check_homomorphism(nonpos, {**neg_fields, **out}, zero, neg + zero, "degree-0")
    return out


def _linear_field(nonpos: LieSuperAlgebra, coords: Coords, pos_of, k: int, lam, B) -> VectorField:
    """X_k = [k in g_minus] d_k - lam sum_{b in B} (-1)^{p_k p_b} c^t_{kb} x_b d_t.

    pos_of maps each g_minus index to its coordinate.  The terms are set in
    candidate order, (v, then monomial) ascending; each (t, x_b) is one term.
    """
    entries = {(pos_of[k], ONE_MONO): coords.field.one} if k in pos_of else {}
    pk = nonpos.parity(k)
    for b in B:
        odd = pk and nonpos.parity(b)
        for t, c in nonpos._table.get((k, b), {}).items():
            entries[pos_of[t], ((pos_of[b], 1),)] = c * lam if odd else -(c * lam)
    terms: Dict[int, dict] = {}
    for (v, m), c in sorted(entries.items()):
        terms.setdefault(v, {})[m] = c
    return VectorField.from_terms(coords, terms)


def _check_homomorphism(nonpos: LieSuperAlgebra, fields: Dict[int, VectorField], rows, cols, what: str):
    """Raise ProlongError unless [X_i, X_j] = sum_t c_ij^t X_t for every i in rows and j in cols."""
    for i in rows:
        for j in cols:
            lhs = fields[i].bracket(fields[j])
            rhs = VectorField(lhs.coords)
            for t, c in nonpos._table.get((i, j), {}).items():
                rhs = rhs + fields[t].scale(c)
            if lhs != rhs:
                raise ProlongError(f"{what} realization failed at [{nonpos.ident(i)},{nonpos.ident(j)}]")


def _field_coords_weights(nonpos: LieSuperAlgebra, neg: List[int]):
    """The weight of each g_- basis vector, in coordinate order, or None if one has none."""
    wts = []
    for k in neg:
        w = nonpos.space.basis[k].weight
        if w is None:
            return None
        wts.append(tuple(w))
    return wts


def _candidate_weight(v, m, weights):
    """The weight of the candidate m d_v: weights[v] minus e * weights[var] for each var^e in m."""
    wt = list(weights[v])
    for var, e in m:
        wv = weights[var]
        for j in range(len(wt)):
            wt[j] = wt[j] - e * wv[j]
    return tuple(wt)


def _candidate_blocks(coords: Coords, k: int, weights):
    """The degree-k candidates m d_v as (v, m) pairs, split by (parity, weight).

    Candidates keep the order of fields_of_degree within each block.  They
    are grouped on integer weights, the coordinate weights cleared by one
    common denominator; each block's key carries the weight with the given
    scalars, computed once from its first candidate, and the blocks are
    sorted by the str of that key, which fixes the basis order.
    """
    index, _ = field_basis_index(coords, k)
    int_weights = None
    if weights is not None:
        den = common_denominator(x for w in weights for x in w)
        int_weights = [tuple(cleared(x, den) for x in w) for w in weights]
    groups: Dict[Tuple, List[Tuple[int, tuple]]] = {}
    for v, m in index:
        par = (mono_parity(m, coords) + coords.parities[v]) % 2
        key = (par,) if int_weights is None else (par, _candidate_weight(v, m, int_weights))
        groups.setdefault(key, []).append((v, m))
    if weights is not None:
        groups = {(key[0], _candidate_weight(*cand[0], weights)): cand for key, cand in groups.items()}
    return dict(sorted(groups.items(), key=lambda kv: (kv[0][0], str(kv[0][1:]))))


def prolong(nonpos: LieSuperAlgebra, max_degree: int) -> ProlongResult:
    """Tanaka's prolongation of g_<=0 = nonpos to degrees <= max_degree; Cartan's at depth 1.

    The one prolongation method; it checks its input first.  TypeError unless
    nonpos is a LieSuperAlgebra and max_degree an int, ValueError for
    max_degree < 0, ProlongError for a missing or positive degree, a bracket
    off the grading, no g_minus or depth > 2, a g_0 that does not act by
    derivations or represent (realize_degree_zero checks every [X_h, X_j]
    against the table, so a check on matrices would repeat it), or that acts
    unfaithfully (dependent degree-0 fields, in the span degree 1 builds anyway).

    Each positive component is the kernel of the bracket residuals modulo the
    components already computed, one (parity, weight) candidate block at a
    time, in the RREF basis over the candidate monomial fields.
    """
    if not isinstance(nonpos, LieSuperAlgebra):
        raise TypeError(f"prolong: nonpos must be a LieSuperAlgebra, got {type(nonpos).__name__}")
    check_ints(max_degree=max_degree)
    positive = next((b for b in nonpos.space if b.degree is None or b.degree > 0), None)
    if positive is not None:
        raise ProlongError(f"prolong needs degrees <= 0: {positive.id!r} has degree {positive.degree}")
    gradefail = nonpos.check_grading()
    if gradefail:
        raise ProlongError(f"action does not preserve the grading: {gradefail[0]}")
    coords, neg_fields = realize_negative(nonpos)
    zero_fields = realize_degree_zero(nonpos, coords, neg_fields)
    neg = nonpos.negative_indices()

    weights = _field_coords_weights(nonpos, neg)
    # each X_e cleared to integers once; den_e drops out of every kernel
    cleared_neg = {e: clear_field(neg_fields[e])[1] for e in neg}
    # the variables that occur in the coefficients of each X_e
    coeff_vars = {e: {w for t in x.values() for m in t for w, _ in m} for e, x in cleared_neg.items()}

    # realized components by degree: degree -> list of (label, field)
    comp_fields: Dict[int, List[VectorField]] = {}
    comp_ids: Dict[int, List[str]] = {}
    for j in neg:
        d = nonpos.degree(j)
        comp_fields.setdefault(d, []).append(neg_fields[j])
        comp_ids.setdefault(d, []).append(nonpos.ident(j))
    comp_fields[0] = [zero_fields[k] for k in nonpos.component_indices(0)]
    comp_ids[0] = [nonpos.ident(k) for k in nonpos.component_indices(0)]

    solvers: Dict[int, Tuple[dict, int, SpanSolver]] = {}

    def component_solver(d: int):
        """SpanSolver for the realized span of g_d inside W_d coordinates."""
        if d in solvers:
            return solvers[d]
        idx, dim = field_basis_index(coords, d)
        vecs = [f.coordinates(idx) for f in comp_fields.get(d, [])]
        solver = SpanSolver(vecs, dim)
        solvers[d] = (idx, dim, solver)
        return solvers[d]

    if component_solver(0)[2].rank < len(comp_fields[0]):
        raise ProlongError("g0 does not act faithfully on g_minus")
    for k in range(1, max_degree + 1):
        # per negative e: (parity, cleared X_e, its coefficient variables,
        # W_{k+deg e} index, dim, solver of g_{k+deg e})
        constraints = [
            (nonpos.parity(e), cleared_neg[e], coeff_vars[e]) + component_solver(k + nonpos.degree(e))
            for e in neg
        ]
        new_fields: List[VectorField] = []
        for key, cand in _candidate_blocks(coords, k, weights).items():
            kernel = _prolong_block(key[0], cand, constraints, coords.parities)
            new_fields.extend(_fields_from_coeffs(kernel, cand, coords))
        comp_fields[k] = new_fields
        comp_ids[k] = [f"g{k}[{j}]" for j in range(len(new_fields))]
        solvers.pop(k, None)

    return _assemble(nonpos, coords, comp_fields, comp_ids, max_degree)


def _prolong_block(par, cand, constraints, parities):
    """Kernel of the bracket residuals of one candidate block, stacked over g_minus.

    Column j holds the residuals of [m d_v, den_e X_e] for the j-th candidate
    (v, m), all of parity par, on the integer term dicts of the constraints.
    A bracket that must vanish is not computed: no coefficient of X_e has x_v
    and m has no x_w that X_e differentiates.  An empty bracket has no
    residual and is not reduced.  Each residual comes back cleared, (den, t)
    with t = den * residual; column j is filled with the residuals times
    D_j, the lcm of its dens, so that it holds integers.
    Scaling column j by D_j maps a kernel vector u of the scaled matrix to
    the kernel vector D_j u_j of the residuals, so the kernel vectors are
    multiplied back by D_j.
    """
    rows: Dict[int, dict] = {}
    scales = []
    for j, (v, m) in enumerate(cand):
        unit = {v: {m: 1}}
        off = 0
        parts = []
        for pe, xe, xe_vars, idx, dim, solver in constraints:
            # [m d_v, X] = m d_v(f_w) d_w -+ f_w d_w(m) d_v for X = f_w d_w: it
            # is zero unless some f_w has x_v or m has an x_w with f_w != 0
            if v in xe_vars or any(w in xe for w, _ in m):
                br = bracket_terms(unit, par, xe, pe, parities)
                if br:
                    den, t = solver.reduce({idx[w, mono]: c for w, terms in br.items() for mono, c in terms.items()})
                    if t:
                        parts.append((off, den, t))
            off += dim
        D = lcm(*[den for _, den, _ in parts])
        for off, den, t in parts:
            s = D // den
            for pos, val in t.items():
                rows.setdefault(off + pos, {})[j] = val * s
        scales.append(D)
    return [{j: c * scales[j] for j, c in vec.items()} for vec in kernel_basis(list(rows.values()), len(cand))]


def _fields_from_coeffs(vectors, cand, coords):
    """Canonicalize coefficient vectors by RREF, then build the fields sum c_j m_j d_(v_j).

    Makes the computed component basis independent of the kernel basis found.
    """
    one = coords.field.one
    fields = []
    for vec in row_space_basis(vectors, len(cand)):
        terms: Dict[int, dict] = {}
        for j, c in sorted(vec.items()):
            v, m = cand[j]
            terms.setdefault(v, {})[m] = one * c
        fields.append(VectorField.from_terms(coords, terms))
    return fields


def _assemble(nonpos, coords, comp_fields, comp_ids, max_degree):
    """The algebra of the computed components, with nonpos's annotations, and its realization."""
    gens = []
    index_of = {}
    for d in sorted(comp_fields):
        for j, f in enumerate(comp_fields[d]):
            ident = comp_ids[d][j]
            par = f.parity()
            if par is None:
                par = nonpos.parity(nonpos.index(ident)) if d <= 0 else 0
            index_of[d, j] = len(gens)
            gens.append((ident, par, d, f))
    i_op = None
    if nonpos.i_op is not None:
        i_op = {}
        for k, img in nonpos.i_op.items():
            src = index_of[(nonpos.degree(k), _position_in_component(nonpos, k))]
            i_op[src] = {
                index_of[(nonpos.degree(t), _position_in_component(nonpos, t))]: c
                for t, c in img.items()
            }
    alg = algebra_of_fields(
        coords,
        gens,
        max_degree,
        cartan=nonpos.cartan,
        raising=nonpos.raising,
        lowering=nonpos.lowering,
        i_op=i_op,
        name=(nonpos.name or "g") + "_*",
    )
    return ProlongResult(alg, {ident: f for ident, _, _, f in gens}, coords, max_degree)


def algebra_of_fields(coords: Coords, gens, max_degree: int, **annotations) -> LieSuperAlgebra:
    """The truncated graded algebra spanned by realized fields, closure checked.

    gens lists (ident, parity, degree, field) in basis order, degrees
    ascending.  Every bracket of two fields whose degree d lies between the
    lowest degree and max_degree is expanded in the span of the degree-d
    fields; one that leaves the span raises ProlongError.  Each field X is
    cleared once to (den_X, den_X X) and the integer bracket of den_X X and
    den_Y Y is solved as it is: only the solution is divided by den_X den_Y.
    The annotations (cartan, raising, lowering, i_op, name) go to the
    LieSuperAlgebra, whose weights are assigned when it names a Cartan
    subalgebra.
    """
    space = SuperSpace([BasisVector(ident, par, d) for ident, par, d, _ in gens])
    cleared = [clear_field(X) for *_, X in gens]
    members: Dict[int, List[int]] = {}
    for n, (_, _, d, _) in enumerate(gens):
        members.setdefault(d, []).append(n)
    solvers: Dict[int, Tuple[dict, SpanSolver]] = {}
    lo = gens[0][2]
    brackets: Dict[Tuple[int, int], Element] = {}
    for a, (id_a, pa, da, _) in enumerate(gens):
        den_a, xa = cleared[a]
        for b in range(a, len(gens)):
            id_b, pb, db, _ = gens[b]
            d = da + db
            if d < lo or d > max_degree:
                continue
            den_b, xb = cleared[b]
            br = bracket_terms(xa, pa, xb, pb, coords.parities)
            if not br:
                continue
            if d not in solvers:
                idx, dim = field_basis_index(coords, d)
                solvers[d] = (idx, SpanSolver([gens[n][3].coordinates(idx) for n in members.get(d, [])], dim))
            idx, solver = solvers[d]
            sol = solver.solve({idx[v, m]: c for v, t in br.items() for m, c in t.items()})
            if sol is None:
                raise ProlongError(f"bracket [{id_a},{id_b}] is not closed in degree {d}")
            if sol:
                scale = rational(1, den_a * den_b)
                brackets[(a, b)] = {members[d][j]: c * scale for j, c in sorted(sol.items())}
    alg = LieSuperAlgebra(space, brackets, truncation=max_degree, field=coords.field, **annotations)
    if alg.cartan:
        alg.assign_weights()
    return alg


def _position_in_component(alg: LieSuperAlgebra, k: int) -> int:
    d = alg.degree(k)
    return alg.component_indices(d).index(k)


def prolong_nonpositive(nonpos: LieSuperAlgebra, max_degree: int) -> ProlongResult:
    """prolong under its older name, which perfbench's workloads call; a def, so a wrapper on prolong sees the call."""
    return prolong(nonpos, max_degree)


def degree_zero_derivations(g_minus: LieSuperAlgebra) -> Action:
    """All grading-preserving superderivations of g_minus, as an Action.

    Solved from the linearized Leibniz constraint, separately for even and odd
    derivations; the result's bracket is the supercommutator of the matrices.
    TypeError for g_minus not a LieSuperAlgebra, ValueError for one with a
    basis vector without a degree.
    """
    if not isinstance(g_minus, LieSuperAlgebra):
        raise TypeError(f"degree_zero_derivations needs a LieSuperAlgebra, got {type(g_minus).__name__}")
    if not g_minus.is_graded():
        raise ValueError("degree_zero_derivations needs a Z-graded algebra")
    n = len(g_minus)
    parities = [g_minus.parity(k) for k in range(n)]
    degrees = [g_minus.degree(k) for k in range(n)]
    gens = []
    for p_d in (0, 1):
        slots = [
            (r, c)
            for r in range(n)
            for c in range(n)
            if degrees[r] == degrees[c] and (parities[r] + parities[c]) % 2 == p_d
        ]
        if not slots:
            continue
        slot_pos = {rc: q for q, rc in enumerate(slots)}
        rows: List[dict] = []
        for i in range(n):
            for j in range(n):
                cij = g_minus._table.get((i, j), {})
                for t in range(n):
                    if degrees[t] != degrees[i] + degrees[j]:
                        continue
                    row: dict = {}

                    def add(slot, coef):
                        # unknowns outside the allowed slots are identically zero
                        q = slot_pos.get(slot)
                        if q is None:
                            return
                        nv = row.get(q, ZERO) + coef
                        if nv:
                            row[q] = nv
                        elif q in row:
                            del row[q]

                    for kk, c in cij.items():
                        add((t, kk), c)
                    for r in range(n):
                        c1 = g_minus._table.get((r, j), {}).get(t)
                        if c1:
                            add((r, i), -c1)
                        c2 = g_minus._table.get((i, r), {}).get(t)
                        if c2:
                            sgn = -1 if (p_d and parities[i]) else 1
                            add((r, j), -sgn * c2)
                    if row:
                        rows.append(row)
        for v in kernel_basis(rows, len(slots)):
            gens.append((p_d, {slots[q]: val for q, val in sorted(v.items())}))
    items = []
    for num, (p_d, m) in enumerate(gens):
        items.append((f"D_{num + 1}", p_d, 0, m))
    alg = from_matrices(items, parities, field=g_minus.field, name=f"der0({g_minus.name})")
    return Action(alg, g_minus.space, [m for _, _, _, m in items])
