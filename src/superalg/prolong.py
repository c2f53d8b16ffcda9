"""Prolongation of a nonpositively graded Lie superalgebra g_<=0 = g_minus + g_0.

prolong(nonpos, max_degree) is the one method: Tanaka's generalized
prolongation (J. Math. Kyoto Univ. 10 (1970) 1-82) for g_minus of depth <= 2,
Cartan's at depth 1.  g_<=0 is realized by polynomial vector fields on
coordinates x_a dual to the basis of g_minus, read off the table c^t_{kb}:

  X_k = [k in g_minus] d_k - lam sum_{b in B} (-1)^{p_k p_b} c^t_{kb} x_b d_t

with lam = 1/2 and B = g_-1 for k in g_minus, lam = 1 and B = g_minus for k
in g_0.  Nothing is solved for (realize_degree_zero says why the degree-0
field is the only one); instead every [X_i, X_j] with i in g_minus or g_0 is
checked against the table.  The positive components are

  g_k = { X of degree k : [X_e, X] lies in g_{k+deg e} for every e in g_minus }

and they are computed one degree k >= 1 at a time, in four steps; a fifth
then derives every other bracket with a positive field.  All five use one
record (_Fields): gens, the (ident, parity, degree, field) of each basis
vector of the result, degrees ascending, and known[a, b], every bracket
found on that basis, which starts as the table of g_<=0.  Every bracket of
fields after the realization checks is made by _Fields.solve.

1. Unknowns.  X is read through phi(e) = [X_e, X] = sum_i u[e,i] Z_i, Z_i
   running over the basis of g_{k+deg e}.  This loses nothing: a field of
   degree k >= 1 that commutes with every X_e is 0, and step 3 rebuilds X
   from the phi(e).
2. Rows.  The super-Jacobi identity gives, for each pair e <= f in g_minus,

     ad_e phi(f) - (-1)^{p_e p_f} ad_f phi(e) - sum_t c^t_{ef} phi(t) = 0

   in g_{k+deg e+deg f}, with ad_e = [X_e, .] read off known: the table on
   g_j for j <= 0, entries that the realization has checked, and step 4 of
   degree j for j > 0.  One kernel_basis call solves the rows.  Every X in
   g_k satisfies them, so the kernel holds all of g_k.  At k = 0 on the
   table of g_minus alone they give der0 (degree_zero_derivations).
3. A field for each kernel vector.  The fields

     L_t = d_t + 1/2 sum_b (-1)^{p_t p_b} c^s_{tb} x_b d_s   (b over g_-1)

   (_linear_field with lam = -1/2) commute with every X_e and form a frame.
   Y^e, the field of phi(e), is written in it, Y^e = sum_t y^e_t L_t: y^e_t
   = Y^e_t on g_-1 and y^e_s = Y^e_s - sum_t y^e_t l_ts on g_-2, where l_ts
   is the d_s coefficient of L_t.  For X = sum_t h_t L_t, [X_e, X] = sum_t
   X_e(h_t) L_t, so y^e_t = X_e(h_t).  sum_e deg(x_e) x_e X_e is the
   weighted Euler field, so h_t, of weight k + deg(x_t), is
   (sum_e deg(x_e) x_e y^e_t) / (k + deg(x_t)): the homotopy formula gives
   back every X of g_k from its phi.  The fields are brought to one RREF
   over the monomial fields m d_v in field_basis_index order, and its rows
   are sorted by the (parity, weight) block of their pivot terms, in the str
   order of the block keys, then by pivot column.  The RREF of a span is
   unique, so the basis does not depend on the kernel basis found.
4. Certificate.  Each new basis field Z joins gens, and _Fields.solve puts
   each [X_e, Z] into known, solved in the span of g_{k+deg e}; a bracket
   outside it raises ProlongError.  Each success proves Z in g_k, so the
   span of step 3 is exactly g_k: step 2 misses no field of g_k and step 4
   admits no other.  The solved constants are ad_e on g_k, which the next
   degree reads, and the brackets [X_e, Z] of the algebra's table.
5. Brackets.  _Fields.finish adds to known every other bracket [a, Z],
   deg Z >= deg a >= 0, read off the certified constants in ascending total
   degree d = deg a + deg Z from 0 to max_degree by the super-Jacobi identity

     phi(e) = [e, [a, Z]] = [[e, a], Z] + (-1)^{p_e p_a} [a, [e, Z]]

   for each e in g_minus.  Each bracket on the right has total degree below
   d, so it is already in known: from the table of g_<=0, from step 4, or
   from an earlier d.  Each is an identity of fields, so phi(e) is
   [X_e, [X_a, X_Z]] on the basis of g_{d+deg e}.  One SpanSolver per d,
   built at the first nonzero phi of that d (in prolong every pair of g_0
   is in known or has phi = 0, so d = 0 builds none), over the stacked
   columns (ad_e W)_e of the basis W of g_d, solves phi = sum_W x_W
   (ad_e W)_e.  This is the exact closure check, as bracketing the fields
   would be: a field of degree >= 0 that commutes with every X_e is 0 (step
   1, realize_degree_zero), so [X_a, Z] lies in g_d exactly when the solve
   succeeds, and then [X_a, Z] = sum_W x_W X_W.  The same argument makes
   the columns independent; dependent columns or a phi with no solution
   raise ProlongError.  No field is bracketed after step 4.

Each row of the RREF of step 3 lies in one block because check_table has
checked that the brackets respect the parities and the weights: each X_e and
each basis field of g_j then lies in one block, so the (parity, weight) parts
of a field of g_k lie in g_k, and g_k is the direct sum of its block parts.
Each part sits on its own columns, so the RREF of g_k is the union of the
RREFs of its parts, each keeping its pivot order: the basis is that of the
blocks reduced one by one.

algebra_of_fields turns realized fields into structure constants for the
contact and pericontact spans of contact.py, on a record with the given gens
and an empty known: it solves the brackets with the negative fields only and
derives the rest by step 5, made exact there by checking that the negative
fields are transitive.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Tuple

from .algebra import LieSuperAlgebra, from_matrices
from .constructors import check_ints
from .linalg import SpanSolver, kernel_basis, row_space_basis
from .polyvf import (
    ONE_MONO,
    Coords,
    VectorField,
    add_product,
    bracket_terms,
    clear_field,
    field_basis_index,
    mono_parity,
)
from .scalars import FIELD_QI, GaussianRational, cleared, common_denominator, rational
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
    fields = _negative_fields(nonpos, coords, HALF)
    _check_homomorphism(nonpos, fields, neg, neg, "negative")
    return coords, fields


def _negative_fields(nonpos: LieSuperAlgebra, coords: Coords, lam) -> Dict[int, VectorField]:
    """{k: _linear_field of k with lam and B = g_-1} for each k in g_minus, in basis order."""
    neg = nonpos.negative_indices()
    pos_of = {k: c for c, k in enumerate(neg)}
    minus1 = [b for b in neg if nonpos.degree(b) == -1]
    return {k: _linear_field(nonpos, coords, pos_of, k, lam, minus1) for k in neg}


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
    the order of field_basis_index, (v, then monomial) ascending; each (t, x_b)
    is one term.
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
    """Raise ProlongError unless [X_i, X_j] = sum_t c_ij^t X_t for every i in rows and j in cols.

    rows is part of cols; as fields and table are super-antisymmetric, (i, j) is skipped for j < i in rows."""
    for i in rows:
        for j in cols:
            if j < i and j in rows:
                continue
            lhs = fields[i].bracket(fields[j])
            rhs = VectorField(lhs.coords)
            for t, c in nonpos._table.get((i, j), {}).items():
                rhs = rhs + fields[t].scale(c)
            if lhs != rhs:
                raise ProlongError(f"{what} realization failed at [{nonpos.ident(i)},{nonpos.ident(j)}]")


# prolong's messages for the first bracket that LieSuperAlgebra.check_table rejects
TABLE_ERRORS = {
    "grading": "action does not preserve the grading: {bad}",
    "parities": "the bracket [{a},{b}] has a term on {t}, off the parities",
    "weights": "a bracket does not add the weights: {bad}",
}


def prolong(nonpos: LieSuperAlgebra, max_degree: int) -> ProlongResult:
    """Tanaka's prolongation of g_<=0 = nonpos to degrees <= max_degree; Cartan's at depth 1.

    The one prolongation method; it checks its input first.  TypeError unless
    nonpos is a LieSuperAlgebra and max_degree an int, ValueError for
    max_degree < 0, ProlongError for a missing or positive degree, a bracket
    off the grading, the parities or the weights (check_table), no g_minus or
    depth > 2, a g_0 that does not act by derivations or represent
    (realize_degree_zero checks every [X_h, X_j] against the table, so a
    check on matrices would repeat it), or that acts unfaithfully (dependent
    degree-0 fields, in the span degree 1 builds anyway).

    gens starts as g_<=0 and known as its table, relabelled once.  Each
    positive component is solved in Hom(g_minus, g) from the super-Jacobi
    rows on known, its fields are built by the homotopy formula, join gens
    and are certified one by one (steps 1-4 of the module docstring);
    _Fields.finish derives every other bracket (step 5).
    """
    if not isinstance(nonpos, LieSuperAlgebra):
        raise TypeError(f"prolong: nonpos must be a LieSuperAlgebra, got {type(nonpos).__name__}")
    check_ints(max_degree=max_degree)
    positive = next((b for b in nonpos.space if b.degree is None or b.degree > 0), None)
    if positive is not None:
        raise ProlongError(f"prolong needs degrees <= 0: {positive.id!r} has degree {positive.degree}")
    nonpos.check_table(ProlongError, TABLE_ERRORS)
    coords, neg_fields = realize_negative(nonpos)
    zero_fields = realize_degree_zero(nonpos, coords, neg_fields)
    frame = commuting_frame(nonpos, coords)
    weights = [nonpos.space.basis[e].weight for e in nonpos.negative_indices()]
    if None in weights:
        weights = [()] * len(weights)
    # the result's basis starts with g_<=0 in ascending degree; base maps each
    # basis vector of nonpos to its index there
    order = [k for d in nonpos.degrees() for k in nonpos.component_indices(d)]
    base = {k: n for n, k in enumerate(order)}
    realized = {**neg_fields, **zero_fields}
    rec = _Fields(
        coords,
        [(nonpos.ident(k), nonpos.parity(k), nonpos.degree(k), realized[k]) for k in order],
        {(base[i], base[j]): {base[t]: c for t, c in val.items()} for (i, j), val in nonpos._table.items()},
    )
    gens = rec.gens
    if rec.span(0)[2].rank < len(zero_fields):
        raise ProlongError("g0 does not act faithfully on g_minus")
    # g_minus in coordinate order
    neg = [base[e] for e in nonpos.negative_indices()]
    for k in range(1, max_degree + 1):
        unknowns, rows = _jacobi_rows([g[1] for g in gens], [g[2] for g in gens], neg, k, rec.known)
        fields = []
        for vec in kernel_basis(rows, len(unknowns)):
            # phi(e) = sum_n u[e,n] X_n = sum_n (u[e,n] / den_n) (den_n X_n),
            # all cleared by one denominator: a multiple of X spans as well
            parts = {}
            for col, u in vec.items():
                e, n = unknowns[col]
                den, terms = rec.cleared(n)
                parts.setdefault(e, []).append((terms, u * rational(1, den)))
            common = common_denominator(u for pairs in parts.values() for _, u in pairs)
            images = {
                neg.index(e): sum(
                    (VectorField.from_terms(coords, terms).scale(cleared(u, common)) for terms, u in pairs),
                    VectorField(coords),
                )
                for e, pairs in parts.items()
            }
            fields.append(homotopy_field(frame, k, images))
        for j, Z in enumerate(_block_bases(fields, coords, k, weights)):
            gens.append((f"g{k}[{j}]", Z.parity(), k, Z))
            for e in neg:
                if not rec.solve(e, len(gens) - 1):
                    raise ProlongError(f"certificate failed: [{gens[e][0]},g{k}[{j}]] is not in g_{k + gens[e][2]}")
    i_op = None
    if nonpos.i_op is not None:
        i_op = {base[k]: {base[t]: c for t, c in img.items()} for k, img in nonpos.i_op.items()}
    annotations = {"cartan": nonpos.cartan, "raising": nonpos.raising, "lowering": nonpos.lowering, "i_op": i_op}
    alg = rec.finish(max_degree, name=(nonpos.name or "g") + "_*", **annotations)
    return ProlongResult(alg, {ident: f for ident, _, _, f in gens}, coords, max_degree)


def _jacobi_rows(parity, degree, neg, k: int, known):
    """(unknowns, rows): the super-Jacobi rows on phi(e) = [X_e, X] for X of degree k.

    parity and degree list those of each basis vector, neg the basis indices
    of g_minus and known[a, b] = [a, b] on the basis, every [e, h] with e in
    g_minus and deg h < k among them.  Column c holds the unknown u[e, n] for
    unknowns[c] = (e, n), phi(e) = sum_n u[e, n] n over the basis of
    g_{k+deg e}.  For each pair e <= f of g_minus, one row per basis vector
    of g_{k+deg e+deg f} holds ad_e phi(f) - (-1)^{p_e p_f} ad_f phi(e) -
    sum_t c^t_{ef} phi(t), with ad_e n = known[e, n].
    """
    comps: Dict[int, List[int]] = {}
    for n, d in enumerate(degree):
        comps.setdefault(d, []).append(n)
    unknowns = [(e, n) for e in neg for n in comps.get(k + degree[e], [])]
    rows = []
    for a, e in enumerate(neg):
        for f in neg[a:]:
            target = comps.get(k + degree[e] + degree[f])
            if not target:
                continue
            eq = {n: {} for n in target}
            mirror = 1 if parity[e] and parity[f] else -1
            terms = [(col, known.get((e, n), {}), 1) for col, (t, n) in enumerate(unknowns) if t == f]
            terms += [(col, known.get((f, n), {}), mirror) for col, (t, n) in enumerate(unknowns) if t == e]
            for t, c in known.get((e, f), {}).items():
                terms += [(col, {n: c}, -1) for col, (u, n) in enumerate(unknowns) if u == t]
            for col, img, sign in terms:
                for t, c in img.items():
                    eq[t][col] = eq[t].get(col, 0) + (c if sign > 0 else -c)
            rows += [{col: c for col, c in row.items() if c} for row in eq.values()]
    return unknowns, [row for row in rows if row]


def commuting_frame(nonpos: LieSuperAlgebra, coords: Coords) -> Dict[int, VectorField]:
    """{coordinate t: L_t}, L_t = d_t + 1/2 sum_b (-1)^{p_t p_b} c^s_{tb} x_b d_s for t in g_minus, b over g_-1.

    _linear_field with lam = -1/2: every L_t commutes with every X_e, and the
    L_t form a frame (unitriangular over the d_t).
    """
    return dict(enumerate(_negative_fields(nonpos, coords, -HALF).values()))


def homotopy_field(frame: Dict[int, VectorField], k: int, images: Dict[int, VectorField]) -> VectorField:
    """The degree-k field X = sum_t h_t L_t with h_t = (sum_e deg(x_e) x_e y^e_t) / (k + deg(x_t)).

    frame is commuting_frame's {t: L_t}, images[e] = Y^e for each coordinate
    e (a missing one is 0), and y^e_t is the L_t coefficient of Y^e:
    Y^e = sum_t y^e_t L_t.  If X of degree k >= 1 has [X_e, X] = Y^e for
    every e, X is this field (module docstring, step 3); the caller checks
    that it is.

    It runs on integers and divides once.  D clears the images and F the
    x-linear parts l_ts of the frame, l'_ts = F l_ts; l_ts joins t to an s of
    one coordinate degree more.  So y~_t = D F^(n_t - 1) y_t, n_t = deg(x_t),
    is integral, solved in ascending n_t: y~_s = F^(n_s - 1) D Y_s - sum_t
    y~_t l'_ts.  So is h~_t = sum_e n_e x_e y~^e_t, and with S = D F^top M,
    top the largest n_t and M the lcm of the k + n_t,
    S X = sum_t a_t h~_t d_t + (a_t / F) h~_t l'_ts d_s for the integers
    a_t = F^(top - n_t + 1) M / (k + n_t).
    """
    coords = next(iter(frame.values())).coords
    parities = coords.parities
    deg = coords.degree
    D = common_denominator(c for Y in images.values() for t in Y.terms.values() for c in t.values())
    F = common_denominator(c for t, L in frame.items() for v, p in L.terms.items() if v != t for c in p.values())
    lin = {
        t: {v: {m: cleared(c, F) for m, c in p.items()} for v, p in L.terms.items() if v != t}
        for t, L in frame.items()
    }
    order = sorted(frame, key=deg)
    h: Dict[int, dict] = {}
    for e, Y in images.items():
        y: Dict[int, dict] = {}
        for v in order:
            lift = F ** (deg(v) - 1)
            acc = {m: cleared(c, D) * lift for m, c in Y.terms.get(v, {}).items()}
            for t, yt in y.items():
                if v in lin[t]:
                    add_product(acc, {m: -c for m, c in yt.items()}, lin[t][v], parities)
            if acc:
                y[v] = acc
        for t, yt in y.items():
            add_product(h.setdefault(t, {}), {((e, 1),): deg(e)}, yt, parities)
    top = max(deg(t) for t in frame)
    M = lcm(*(k + deg(t) for t in frame))
    out: Dict[int, dict] = {}
    for t, ht in h.items():
        a = F ** (top - deg(t) + 1) * M // (k + deg(t))
        add_product(out.setdefault(t, {}), ht, {ONE_MONO: a}, parities)
        for s, lts in lin[t].items():
            add_product(out.setdefault(s, {}), ht, {m: c * (a // F) for m, c in lts.items()}, parities)
    inverse = rational(1, D * F**top * M)
    return VectorField.from_terms(coords, {v: {m: c * inverse for m, c in t.items()} for v, t in out.items() if t})


def _block_bases(fields, coords: Coords, k: int, weights) -> List[VectorField]:
    """The RREF basis of the span of degree-k fields, ordered by the (parity, weight) block of each pivot.

    One RREF over the monomial fields m d_v in field_basis_index order; the
    rows are sorted by (parity, str((weight,))) of their pivot terms, then by
    pivot column.  weights lists each coordinate's weight, all () for blocks
    by parity alone.  Weights that mix GaussianRational with rationals are
    all taken as GaussianRational, so a block's key is the same from each of
    its members.
    """
    index, dim = field_basis_index(coords, k)
    cand = list(index)
    if any(isinstance(x, GaussianRational) for w in weights for x in w):
        weights = [tuple(FIELD_QI.one * x for x in w) for w in weights]

    def block(row):
        v, m = cand[min(row)]
        wt = weights[v]
        for var, e in m:
            wt = tuple(x - e * y for x, y in zip(wt, weights[var]))
        return (mono_parity(m, coords) + coords.parities[v]) % 2, str((wt,)), min(row)

    one = coords.field.one
    out = []
    for row in sorted(row_space_basis([X.coordinates(index) for X in fields], dim), key=block):
        terms: Dict[int, dict] = {}
        for j, c in sorted(row.items()):
            v, m = cand[j]
            terms.setdefault(v, {})[m] = one * c
        out.append(VectorField.from_terms(coords, terms))
    return out


class _Fields:
    """Realized fields in the basis order of the algebra they span, and every bracket found on that basis.

    gens[n] = (ident, parity, degree, field), degrees ascending, and known[a,
    b] = [a, b] = {t: c}, kept for both orders.  prolong and algebra_of_fields
    bracket fields only by solve and build the algebra by finish.
    """

    def __init__(self, coords: Coords, gens, known):
        self.coords, self.gens, self.known = coords, gens, known
        # {n: (den, den * field)} and {d: span(d)}, each entry built on first use
        self._cleared, self._spans = {}, {}

    def cleared(self, n: int):
        """(den, den * field) of gens[n], its terms integers (polyvf.clear_field)."""
        if n not in self._cleared:
            self._cleared[n] = clear_field(self.gens[n][3])
        return self._cleared[n]

    def span(self, d: int):
        """(members, idx, solver) of degree d: its basis indices, field_basis_index and the SpanSolver of its fields."""
        if d not in self._spans:
            members = [n for n, g in enumerate(self.gens) if g[2] == d]
            idx, dim = field_basis_index(self.coords, d)
            self._spans[d] = members, idx, SpanSolver([self.gens[n][3].coordinates(idx) for n in members], dim)
        return self._spans[d]

    def solve(self, a: int, b: int) -> bool:
        """Add [X_a, X_b] to known, solved in the span of the fields of its degree; False when it lies outside.

        The fields are bracketed cleared to integers, by polyvf.bracket_terms;
        a zero bracket is not solved, and known keeps no zero bracket.
        """
        (den_a, xa), (den_b, xb) = self.cleared(a), self.cleared(b)
        pa, pb = self.gens[a][1], self.gens[b][1]
        br = bracket_terms(xa, pa, xb, pb, self.coords.parities)
        if not br:
            return True
        sol = _solve_in(self.span(self.gens[a][2] + self.gens[b][2]), br)
        if sol is None:
            return False
        scale = rational(1, den_a * den_b)
        self.known[a, b] = {n: c * scale for n, c in sol.items()}
        self.known[b, a] = _mirror(self.known[a, b], pa, pb)
        return True

    def finish(self, max_degree: int, **annotations) -> LieSuperAlgebra:
        """The algebra of gens truncated at max_degree; every bracket not in known is derived by step 5.

        The cleared fields and the span solvers are dropped first.  The table
        goes to LieSuperAlgebra in sorted (a, b) order with the annotations,
        after known is dropped, and weights are assigned when they name a
        Cartan subalgebra.
        """
        self._cleared = self._spans = None
        space = SuperSpace([BasisVector(ident, par, d) for ident, par, d, _ in self.gens])
        neg = [n for n, g in enumerate(self.gens) if g[2] < 0]
        _positive_brackets(space, neg, self.known, max_degree, self.coords.field.one)
        table = {(a, b): self.known[a, b] for a, b in sorted(self.known) if a <= b}
        self.known = None
        alg = LieSuperAlgebra(space, table, truncation=max_degree, field=self.coords.field, **annotations)
        if alg.cartan:
            alg.assign_weights()
        return alg


def _solve_in(span, br):
    """The term dict br on the fields of span, _Fields.span of its degree: {n: c} ascending, or None outside it."""
    members, idx, solver = span
    sol = solver.solve({idx[v, m]: c for v, t in br.items() for m, c in t.items()})
    return None if sol is None else {members[j]: c for j, c in sorted(sol.items())}


def _mirror(val, pa: int, pb: int):
    """[b, a] from val = [a, b]: -(-1)^{p_a p_b} val."""
    return dict(val) if pa and pb else {t: -c for t, c in val.items()}


def _positive_brackets(space: SuperSpace, neg, known, max_degree: int, one):
    """Add to known every [a, b] not in it, deg a, deg b >= 0, deg a + deg b <= max_degree, by super-Jacobi.

    space lists the basis in ascending degree, neg the basis indices of
    g_minus and known[a, b] the brackets found so far, for both orders, every
    bracket with g_minus up to max_degree among them.  In ascending total
    degree d >= 0, phi(e) = [e, [a, b]] = [[e, a], b] + (-1)^{p_e p_a}
    [a, [e, b]] for each e in g_minus reads only brackets of total degree
    below d, and one SpanSolver per d over the stacked columns (ad_e W)_e of
    the basis W of g_d solves phi = sum_W x_W (ad_e W)_e for [a, b] = sum_W
    x_W W (step 5 of the module docstring).  That solver is built, and its
    columns checked, at the first pair of the level with a nonzero phi.
    ProlongError when the columns are dependent or phi has no solution:
    [a, b] is then not in g_d.

    phi runs on integers: each bracket is read cleared, (den, den * [a, b]),
    the products are summed per denominator and the sums brought to their
    lcm L, so the solution is divided once, by L, into the field's scalars
    (one is the field's unit).
    """
    comps: Dict[int, List[int]] = {}
    for n, b in enumerate(space.basis):
        comps.setdefault(b.degree, []).append(n)
    # the position of each basis vector in its component
    pos = {n: i for members in comps.values() for i, n in enumerate(members)}
    parity = [b.parity for b in space.basis]
    degree = [b.degree for b in space.basis]
    ints: Dict[Tuple[int, int], Tuple[int, dict]] = {}

    def cleared_bracket(a, b):
        if (a, b) not in ints:
            val = known.get((a, b), {})
            den = common_denominator(val.values())
            ints[a, b] = den, {t: cleared(c, den) for t, c in val.items()}
        return ints[a, b]

    def jacobi_images(a, b, offset):
        """(L, L * phi) for the pair (a, b): phi(e) on the rows offset[e] + pos."""
        # {den: den times the terms of phi with that denominator}
        sums: Dict[int, dict] = {}
        for e in neg:
            sign = -1 if parity[e] and parity[a] else 1
            den_ea, ea = cleared_bracket(e, a)
            den_eb, eb = cleared_bracket(e, b)
            terms = [(den_ea, c, cleared_bracket(s, b)) for s, c in ea.items()]
            terms += [(den_eb, sign * c, cleared_bracket(a, s)) for s, c in eb.items()]
            for den, c, (den2, img) in terms:
                acc = sums.setdefault(den * den2, {})
                for t, c2 in img.items():
                    row = offset[e] + pos[t]
                    acc[row] = acc.get(row, 0) + c * c2
        L = lcm(*sums)
        phi: Dict[int, object] = {}
        for den, acc in sums.items():
            for row, v in acc.items():
                phi[row] = phi.get(row, 0) + v * (L // den)
        return L, {row: v for row, v in phi.items() if v}

    for d in range(max_degree + 1):
        offset, total = {}, 0
        for e in neg:
            offset[e] = total
            total += len(comps.get(d + degree[e], ()))
        W = comps.get(d, [])
        solver = None
        # the pairs a <= b of degrees da <= d - da, the basis being in ascending degree
        pairs = [(a, b) for da in range(d // 2 + 1) for a in comps.get(da, []) for b in comps.get(d - da, []) if a <= b]
        for a, b in pairs:
            if (a, b) in known:
                continue
            L, phi = jacobi_images(a, b, offset)
            if not phi:
                continue
            if solver is None:
                cols = [{offset[e] + pos[t]: c for e in neg for t, c in known.get((e, w), {}).items()} for w in W]
                solver = SpanSolver(cols, total)
                if solver.rank < len(W):
                    raise ProlongError(f"the certified brackets with g_minus are dependent on g_{d}")
            sol = solver.solve(phi)
            if sol is None:
                raise ProlongError(f"bracket [{space.basis[a].id},{space.basis[b].id}] is not closed in degree {d}")
            scale = one * rational(1, L)
            known[a, b] = {W[j]: c * scale for j, c in sorted(sol.items())}
            if a != b:
                known[b, a] = _mirror(known[a, b], parity[a], parity[b])


def algebra_of_fields(coords: Coords, gens, max_degree: int, **annotations) -> LieSuperAlgebra:
    """The truncated graded algebra spanned by realized fields, closure checked.

    contact.span_algebra builds the contact and pericontact spans with it.
    gens lists (ident, parity, degree, field) in basis order, degrees
    ascending, else ValueError naming the first one out of order.  They are
    the gens of a _Fields record whose known starts empty: _Fields.solve
    adds each [X_e, X_b], e <= b of negative degree, of degree d from the
    lowest degree to max_degree, solved in the span of the degree-d fields,
    and _Fields.finish derives the brackets of two fields of degree >= 0 by
    step 5 of the module docstring, exact here as the constant parts C_e of
    the X_e span every d_v (checked first): the lowest-order part of
    [X_e, Y] is C_e(Y_m), so a Y of degree >= 0 that commutes with every X_e
    is 0.  A bracket outside its span raises ProlongError.  The annotations
    go to the LieSuperAlgebra, which assigns weights when they name a Cartan
    subalgebra.
    """
    degrees = [d for _, _, d, _ in gens]
    for (_, _, before, _), (ident, _, d, _) in zip(gens, gens[1:]):
        if d < before:
            raise ValueError(
                f"algebra_of_fields needs gens in ascending degree: {ident!r} of degree {d} follows degree {before}"
            )
    neg = [n for n, d in enumerate(degrees) if d < 0]
    constants = [{v: t[ONE_MONO] for v, t in gens[e][3].terms.items() if ONE_MONO in t} for e in neg]
    rank = SpanSolver(constants, len(coords)).rank
    if rank < len(coords):
        raise ProlongError(f"the negative fields are not transitive: their constants span {rank} of {len(coords)} d_v")
    rec = _Fields(coords, list(gens), {})
    for e in neg:
        for b in range(e, len(gens)):
            d = degrees[e] + degrees[b]
            if degrees[0] <= d <= max_degree and not rec.solve(e, b):
                raise ProlongError(f"bracket [{gens[e][0]},{gens[b][0]}] is not closed in degree {d}")
    return rec.finish(max_degree, **annotations)


def prolong_nonpositive(nonpos: LieSuperAlgebra, max_degree: int) -> ProlongResult:
    """prolong under its older name, which perfbench's workloads call; a def, so a wrapper on prolong sees the call."""
    return prolong(nonpos, max_degree)


def degree_zero_derivations(g_minus: LieSuperAlgebra) -> LieSuperAlgebra:
    """der0, all grading-preserving superderivations of g_minus, as a from_matrices algebra.

    D is read through phi(e) = [e, D], the unknowns of _jacobi_rows at k = 0,
    with g_minus's table as known (step 2 of the module docstring).  As [D, e] = D(e),
    the entry (r, e) of D is -(-1)^{p_D p_e} phi(e)_r.  Each parity's
    columns, ordered as their entries (r, e), are solved by kernel_basis, even
    D first.  The bracket is the supercommutator of the .matrices, which act
    on g_minus's basis: combine_nonpositive(g_minus, der0, der0.matrices) is
    g_minus + der0.
    TypeError for g_minus not a LieSuperAlgebra, ValueError for one with a
    basis vector without a degree or of degree >= 0.
    """
    if not isinstance(g_minus, LieSuperAlgebra):
        raise TypeError(f"degree_zero_derivations needs a LieSuperAlgebra, got {type(g_minus).__name__}")
    if not g_minus.is_graded():
        raise ValueError("degree_zero_derivations needs a Z-graded algebra")
    nonneg = next((b for b in g_minus.space if b.degree >= 0), None)
    if nonneg is not None:
        raise ValueError(f"degree_zero_derivations needs degrees < 0: {nonneg.id!r} has degree {nonneg.degree}")
    parities = [g_minus.parity(k) for k in range(len(g_minus))]
    degrees = [g_minus.degree(k) for k in range(len(g_minus))]
    unknowns, rows = _jacobi_rows(parities, degrees, g_minus.negative_indices(), 0, g_minus._table)
    # the entry (r, e) of D that column (e, r) gives
    cells = [(r, e) for e, r in unknowns]
    items = []
    for p_d in (0, 1):
        # this parity's columns in the row-major order of their entries
        cols = sorted((c for c, (r, e) in enumerate(cells) if parities[r] ^ parities[e] == p_d), key=cells.__getitem__)
        slot = {c: q for q, c in enumerate(cols)}
        part = (
            {slot[c]: v if p_d and parities[cells[c][1]] else -v for c, v in row.items() if c in slot} for row in rows
        )
        for v in kernel_basis([row for row in part if row], len(cols)):
            items.append((f"D_{len(items) + 1}", p_d, 0, {cells[cols[q]]: val for q, val in sorted(v.items())}))
    return from_matrices(items, parities, field=g_minus.field, name=f"der0({g_minus.name})")
