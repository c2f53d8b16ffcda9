"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own elimination and enumeration code
paths: the rank oracle is dense fraction-free (Bareiss) elimination, the RREF
oracle is dense Gauss-Jordan with lowest-index pivot rows, the span reduction
reads the dense RREF of [vectors | identity], the dimension oracles enumerate
admissible index words directly, and the differential is evaluated from the
cohomology module's formula on unit cochains; the Nijenhuis and Grassmann
oracles evaluate their formulas term by term on the scalars as given;
tensoriality_defect tests any evaluator for function-linearity, the
monomial product sorts expanded factor lists by transpositions, and the
representation check multiplies matrices entry by entry.  The
linear algebra oracles first make every entry exact (an integer or a field
scalar), so that int input never meets true division.  canonical_sha256 is
the one digest every pinned document and report in the tests is compared by.
s2_0_weights lists the weights of S^2_0(C^N) from the weights of C^N.
candidate_prolongation computes g_k from its definition, as a kernel over
every degree-k monomial field, with VectorField.bracket and the package's
sparse elimination (itself checked against the dense oracles above).
realization_failures brackets every pair of the fields that realize an
algebra, a prolongation or a contact or pericontact span, with
VectorField.bracket and compares it with the table.  der0_failures applies
each derivation's matrix to every bracket of g_minus, and counts der0 by
parity as the nullity of the dense Leibniz system built from that same
defect map, by dense_rank_fraction_free.  h2_block_by_full_z2 computes the
H^2 representatives of one block the long way, from a basis of all of Z^2
reduced modulo B^2, with the package's sparse elimination.
dense_commutant_on computes the even commutant of the g0 action on a
generated submodule the long way: unknowns on every same-parity slot, each
equation summed over all (r, c, k), coordinates from a SpanSolver.  The
contact and pericontact forms, the Lie derivative identities they satisfy
and the composed isomorphism between two Grassmann real forms are checks
that only the tests run.
"""

import hashlib
import json
from itertools import product

from superalg.cohomology import _restrict, generated_submodule
from superalg.contact import contact_field, pericontact_field
from superalg.grassmann import CanonicalIso, GrassmannElement
from superalg.linalg import SpanSolver, kernel_basis, row_space_basis
from superalg.polyvf import Polynomial, VectorField, add_product, coordinate_field, field_basis_index, mono_parity
from superalg.scalars import ONE, ZERO, GaussianRational, as_gaussian, common_denominator, gaussian, rational


def canonical_sha256(doc):
    """SHA-256 of the canonical JSON of a document: sorted keys, no spaces, UTF-8."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _exact(x):
    """x as an exact field scalar: a GaussianRational, or the backend rational."""
    return x if isinstance(x, GaussianRational) else rational(x)


def dense_rank_fraction_free(dense):
    """Rank via Bareiss fraction-free elimination on a dense copy.

    Each row is first multiplied by the lcm of its denominators, which keeps
    the rank and makes every entry an integer (over QQ(i) every entry becomes
    a GaussianRational with integral parts).  Below the pivot m[r][c], entry
    (i, j) becomes (m[r][c] m[i][j] - m[i][c] m[r][j]) / prev, prev being the
    previous pivot.  Each such value is a minor of the scaled matrix, so the
    division is exact: // on ints, / on Gaussian integers (Bareiss, Math.
    Comp. 22 (1968) 565-578).
    """
    m = []
    for row in dense:
        den = common_denominator(row)
        m.append(
            [x * den if isinstance(x, GaussianRational) else x.numerator * (den // x.denominator) for x in row]
        )
    if not m:
        return 0
    gaussian = any(isinstance(x, GaussianRational) for row in m for x in row)
    if gaussian:
        m = [[as_gaussian(x) for x in row] for row in m]
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = as_gaussian(1) if gaussian else 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if gaussian:
                m[i] = [(piv * a - f * b) / prev for a, b in zip(m[i], m[r])]
            else:
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], m[r])]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def dense_rref(rows, cols):
    """(pivot_cols, rref) of a list of row dicts, eliminated on dense lists.

    Each column takes the lowest-index remaining row as pivot; the rows come
    back as dicts of nonzeros, like superalg.linalg.rref_rows.
    """
    work = [[_exact(r.get(c, ZERO)) for c in range(cols)] for r in rows]
    used = [False] * len(work)
    pivots = []
    for c in range(cols):
        pr = next((r for r in range(len(work)) if not used[r] and work[r][c]), -1)
        if pr < 0:
            continue
        used[pr] = True
        piv = work[pr][c]
        work[pr] = [v / piv for v in work[pr]]
        for r in range(len(work)):
            f = work[r][c]
            if r != pr and f:
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
        pivots.append((c, pr))
    return [c for c, _ in pivots], [{cc: v for cc, v in enumerate(work[pr]) if v} for _, pr in pivots]


def dense_reduce(vectors, dim, vec):
    """(residual, combination) of vec against the span of vectors, read off dense_rref.

    The RREF of the rows [v_j | e_j] gives, for each pivot column c < dim, a
    row [r | k] with r = sum_j k_j v_j.  Subtracting vec[c] times each such
    row from [vec | 0] leaves [residual | -combination], so that
    vec = residual + sum_j combination[j] v_j.  Both come back as dicts of
    nonzeros.
    """
    n = len(vectors)
    rows = [{**v, dim + j: ONE} for j, v in enumerate(vectors)]
    pivots, rref = dense_rref(rows, dim + n)
    t = [_exact(vec.get(c, ZERO)) for c in range(dim)] + [ZERO] * n
    for c, row in zip(pivots, rref):
        f = t[c] if c < dim else ZERO
        if f:
            for cc, v in row.items():
                t[cc] -= f * v
    residual = {c: t[c] for c in range(dim) if t[c]}
    combination = {j: -t[dim + j] for j in range(n) if t[dim + j]}
    return residual, combination


def _super_sort(word, parities):
    """(sorted word, sign) for an argument word of a super-alternating map, or None.

    Swapping two adjacent arguments x, y multiplies by -(-1)^{p(x)p(y)}, so
    a repeated even argument gives 0.
    """
    word = list(word)
    sign = 1
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            x, y = word[j], word[j + 1]
            if x > y:
                word[j], word[j + 1] = y, x
                if not (parities[x] and parities[y]):
                    sign = -sign
    if any(x == y and not parities[x] for x, y in zip(word, word[1:])):
        return None
    return tuple(word), sign


def differential_entries(g, k, cols, rows):
    """{(row, col): value} of d: C^k -> C^{k+1} on unit cochains, from the formula.

    Keys are (word, target) pairs, words over positions in g.negative_indices().
    Column (w, t) is the cochain with value e_t on w (and its super-alternating
    extension); row (x_0..x_k, s) reads the e_s coefficient of
    (dc)(x_0..x_k) =
        sum_i (-1)^{i + p(x_i)(p(c) + p(x_0)+..+p(x_{i-1}))} [x_i, c(.. x_i ..)]
      + sum_{i<j} (-1)^{i+j+p(x_i)p(x_j) + p(x_i) sum_{l<i} p(x_l)
          + p(x_j) sum_{l<j} p(x_l)} c([x_i,x_j], .. x_i .. x_j ..)
    with the structure constants as bracket_basis gives them.
    """
    neg = g.negative_indices()
    pos = {a: q for q, a in enumerate(neg)}
    par = [g.parity(a) for a in neg]
    out = {}
    for col in cols:
        cw, ct = col
        pc = (g.parity(ct) + sum(par[q] for q in cw)) % 2

        def c_value(args):
            """The coefficient of e_ct in c(args): the sign of sorting args onto cw, or 0."""
            res = _super_sort(args, par)
            return res[1] if res is not None and res[0] == cw else 0

        for row in rows:
            x, s = row
            pre = [sum(par[q] for q in x[:i]) for i in range(len(x))]
            val = 0
            for i in range(len(x)):
                sign = (-1) ** (i + par[x[i]] * (pc + pre[i]))
                cv = c_value(x[:i] + x[i + 1 :])
                if cv:
                    val += sign * cv * g.bracket_basis(neg[x[i]], ct).get(s, 0)
            if s == ct:
                for i in range(len(x)):
                    for j in range(i + 1, len(x)):
                        exp = i + j + par[x[i]] * par[x[j]] + par[x[i]] * pre[i] + par[x[j]] * pre[j]
                        sign = (-1) ** exp
                        rest = tuple(q for l, q in enumerate(x) if l not in (i, j))
                        for m, gamma in g.bracket_basis(neg[x[i]], neg[x[j]]).items():
                            if m in pos:
                                val += sign * gamma * c_value((pos[m],) + rest)
            if val:
                out[row, col] = val
    return out


def h2_block_by_full_z2(d1, d2):
    """(reps, dim_z2, dim_b2) of one cohomology block by the full-Z^2 route.

    d1: C^1 -> C^2 and d2: C^2 -> C^3 are the block's differential matrices
    (SparseMatrix).  Z^2 is kernel_basis of d2 over every C^2 column, each
    cocycle is reduced modulo B^2, the span of d1's columns, by
    SpanSolver.reduce, and the representatives are the RREF of the cleared
    residuals; dim_b2 is the number of rows of the RREF of d1's columns.
    """
    d2_rows = [{} for _ in range(d2.rows)]
    for (r, c), v in d2.entries.items():
        d2_rows[r][c] = v
    z2 = kernel_basis(d2_rows, d2.cols)
    b2 = [{} for _ in range(d1.cols)]
    for (r, c), v in d1.entries.items():
        b2[c][r] = v
    b2_solver = SpanSolver(b2, d1.rows)
    reps = row_space_basis([b2_solver.reduce(z)[1] for z in z2], d2.cols)
    return reps, len(z2), len(row_space_basis(b2, d1.rows))


def dense_commutant_on(deg, classes, mats):
    """The even commutant of mats on the submodule M that classes generate,
    restricted to span(classes), by the parity route.

    Its unknowns are every slot (r, c) of M's basis whose vectors have one
    parity, read off their block supports; each equation of [A, X] = 0 is
    summed over all (r, c, k); M is a SpanSolver, which also checks that M is
    closed under mats.  Elements that leave span(classes) are dropped.
    """
    n = deg.dim_h2
    M = generated_submodule(deg, classes, mats)
    m = len(M)
    msolver = SpanSolver(M, n)
    pos_parity = [b.parity for b in deg.blocks for _ in range(b.dim_h2)]
    par = []
    for vec in M:
        ps = {pos_parity[pos] for pos in vec}
        par.append(ps.pop() if len(ps) == 1 else None)
    acts = []
    for mat in mats:
        R = _restrict(mat, M, msolver)
        if R is None:
            raise ValueError("generated module is not action closed")
        acts.append({(i, j): val for j, sol in enumerate(R) for i, val in sol.items()})
    slots = [(r, c) for r in range(m) for c in range(m) if par[r] is not None and par[r] == par[c]]
    slot_pos = {rc: q for q, rc in enumerate(slots)}
    rows = []
    for A in acts:
        for r in range(m):
            for c in range(m):
                row = {}
                for k in range(m):
                    v1 = A.get((r, k))
                    if v1 and (k, c) in slot_pos:
                        q = slot_pos[(k, c)]
                        row[q] = row.get(q, ZERO) + v1
                    v2 = A.get((k, c))
                    if v2 and (r, k) in slot_pos:
                        q = slot_pos[(r, k)]
                        row[q] = row.get(q, ZERO) - v2
                row = {q: v for q, v in row.items() if v}
                if row:
                    rows.append(row)
    wcoords = [msolver.solve(vec) for vec in classes]
    wsolver = SpanSolver(wcoords, m)
    restricted = []
    for X in kernel_basis(rows, len(slots)):
        R = _restrict({slots[q]: v for q, v in X.items()}, wcoords, wsolver)
        if R is not None:
            restricted.append(R)
    return restricted


def count_admissible_words(parities, k, evens_strict):
    """Count sorted index words of length k over the given parities.

    evens_strict=True counts exterior-type words (even indices distinct, odd
    indices repeatable); False counts symmetric-type words (the flip).
    """
    n = len(parities)
    count = 0
    for word in product(range(n), repeat=k):
        if any(word[i] > word[i + 1] for i in range(k - 1)):
            continue
        ok = True
        for i in range(k - 1):
            if word[i] == word[i + 1]:
                odd = parities[word[i]] == 1
                if evens_strict and not odd:
                    ok = False
                    break
                if not evens_strict and odd:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def matrix_supercommutator(a, b, parity_a, parity_b):
    """[a, b] = ab - (-1)^{p(a)p(b)} ba for dense square matrices."""
    n = len(a)
    sign = -1 if (parity_a and parity_b) else 1

    def mul(x, y):
        return [
            [sum((x[i][k] * y[k][j] for k in range(n)), rational(0) * 1) for j in range(n)]
            for i in range(n)
        ]

    ab = mul(a, b)
    ba = mul(b, a)
    return [[ab[i][j] - sign * ba[i][j] for j in range(n)] for i in range(n)]


def even_nijenhuis(J, X, Y):
    """[JX,JY] - J[JX,Y] - J[X,JY] - [X,Y], with J.apply and VectorField.bracket as given."""
    JX, JY = J.apply(X), J.apply(Y)
    return JX.bracket(JY) - J.apply(JX.bracket(Y)) - J.apply(X.bracket(JY)) - X.bracket(Y)


def odd_nijenhuis(J, X, Y):
    """(-1)^{p(X)} [JX,JY] - J[JX,Y] - (-1)^{p(X)} J[X,JY] - [X,Y] for a homogeneous nonzero X,
    with J.apply and VectorField.bracket as given."""
    JX, JY = J.apply(X), J.apply(Y)
    signed = JX.bracket(JY) - J.apply(X.bracket(JY))
    return (-signed if X.parity() else signed) - J.apply(JX.bracket(Y)) - X.bracket(Y)


def tensoriality_defect(evaluate, X, Y, f):
    """evaluate(fX, Y) - f evaluate(X, Y) for a function f; zero where the
    evaluator is function-linear in its first slot."""
    coords = X.coords
    fX = VectorField(coords, {a: f * g for a, g in X.coeffs.items()})
    scaled = VectorField(coords, {a: f * g for a, g in evaluate(X, Y).coeffs.items()})
    return evaluate(fX, Y) - scaled


def grassmann_product(a, b):
    """a * b in Lambda_C(n), one Gaussian rational product and sum per pair of terms."""
    out = {}
    for s1, c1 in a.terms.items():
        for s2, c2 in b.terms.items():
            if set(s1) & set(s2):
                continue
            # the sign of sorting s1 + s2: one transposition per inverted pair
            inversions = sum(1 for x in s1 for y in s2 if x > y)
            s = tuple(sorted(s1 + s2))
            c = c1 * c2
            if inversions % 2:
                c = -c
            nv = out.get(s, gaussian(0)) + c
            if nv:
                out[s] = nv
            elif s in out:
                del out[s]
    return GrassmannElement(a.n, out)


def grassmann_linear_terms(pairs):
    """The terms of sum c * element over (scalar c, element) pairs, one Gaussian
    rational product and sum per term, as {subset: GaussianRational} without zeros."""
    out = {}
    for c, element in pairs:
        for s, v in element.terms.items():
            out[s] = out.get(s, gaussian(0)) + as_gaussian(c) * v
    return {s: v for s, v in out.items() if v}


def monomial_product(m1, m2, parities):
    """(monomial, sign) of the product of two canonical monomials, or None if it is 0.

    Both monomials are expanded into factor lists, each variable repeated by
    its exponent, and m1's factors are put before m2's.  The list is sorted by
    adjacent transpositions; each transposition of two odd factors costs a
    sign, an even one none.  An odd variable that occurs twice makes the
    product zero; an even one adds its exponents.
    """
    factors = [v for v, e in m1 for _ in range(e)] + [v for v, e in m2 for _ in range(e)]
    sign = 1
    for i in range(len(factors)):
        for j in range(len(factors) - 1 - i):
            a, b = factors[j], factors[j + 1]
            if a > b:
                factors[j], factors[j + 1] = b, a
                if parities[a] and parities[b]:
                    sign = -sign
    if any(a == b and parities[a] for a, b in zip(factors, factors[1:])):
        return None
    out = []
    for v in factors:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out), sign


def monomial_derivative(mono, var, parities):
    """(monomial, factor) of the left derivative of a canonical monomial by var, or None if it is 0.

    The monomial is expanded into a factor list, each variable repeated by its
    exponent.  Each occurrence of var is struck out in turn; when var is odd,
    every odd factor to its left costs a sign.  The terms all have the same
    monomial, so their signs add up to one integer factor.
    """
    factors = [v for v, e in mono for _ in range(e)]
    factor, rest = 0, None
    for i, v in enumerate(factors):
        if v != var:
            continue
        passed = sum(parities[u] for u in factors[:i]) if parities[var] else 0
        factor += -1 if passed % 2 else 1
        rest = factors[:i] + factors[i + 1:]
    if not factor:
        return None
    out = []
    for v in rest:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out), factor


def representation_failures(g, mats):
    """The basis pairs (x, y) of g whose matrices' supercommutator is not the matrix of [x, y].

    mats[k] is the matrix of g's k-th basis vector, an {(r, c): scalar} dict,
    multiplied entry by entry here; [a, b] = ab - (-1)^{p(a)p(b)} ba.
    """

    def add_product(out, a, b, sign):
        for (r, k), x in a.items():
            for (k2, c), y in b.items():
                if k == k2:
                    out[r, c] = out.get((r, c), ZERO) + sign * x * y

    bad = []
    for i in range(len(g)):
        for j in range(len(g)):
            defect = {}
            add_product(defect, mats[i], mats[j], 1)
            add_product(defect, mats[j], mats[i], 1 if g.parity(i) and g.parity(j) else -1)
            for k, c in g.bracket_basis(i, j).items():
                for rc, v in mats[k].items():
                    defect[rc] = defect.get(rc, ZERO) - c * v
            if any(defect.values()):
                bad.append((g.ident(i), g.ident(j)))
    return bad


def s2_0_weights(N):
    """The weights of S^2_0(C^N) under the maximal torus of o(N), sorted.

    C^N has the weights +-e_k for k = 1..N//2, and 0 for odd N; S^2 has
    w_a + w_b for a <= b over that list, and S^2_0 drops one 0, the invariant
    quadratic form.  Each weight is a tuple of N//2 ints.
    """
    rank = N // 2
    units = [tuple(s if i == k else 0 for i in range(rank)) for k in range(rank) for s in (1, -1)]
    ws = units + [(0,) * rank] * (N % 2)
    sums = [tuple(x + y for x, y in zip(ws[a], ws[b])) for a in range(N) for b in range(a, N)]
    sums.remove((0,) * rank)
    return sorted(sums)


def candidate_prolongation(coords, nonpositive, max_degree):
    """{k: fields spanning g_k} for k = 1..max_degree, as the kernel over monomial candidates.

    nonpositive maps each degree d <= 0 to the realized fields of g_d on
    coords.  g_k = {X in W_k : [X, X_e] lies in g_{k+deg e} for every X_e of
    negative degree}: each candidate m d_v of degree k is bracketed with every
    X_e by VectorField.bracket, reduced modulo the span of g_{k+deg e}, and
    the kernel of the map from the candidates to the stacked residuals is
    g_k.  This is the definition, taken over all of W_k at once with no
    parity or weight blocks; only SpanSolver and kernel_basis are shared
    with the package.
    """
    comps = {d: list(fields) for d, fields in nonpositive.items()}
    negative = [X for d in sorted(comps) if d < 0 for X in comps[d]]
    one = coords.field.one
    for k in range(1, max_degree + 1):
        cand = list(field_basis_index(coords, k)[0])
        rows = {}
        offset = 0
        for X_e in negative:
            d = k + X_e.degree()
            idx, dim = field_basis_index(coords, d)
            solver = SpanSolver([Z.coordinates(idx) for Z in comps.get(d, [])], dim)
            for j, (v, m) in enumerate(cand):
                den, t = solver.reduce(VectorField.from_terms(coords, {v: {m: one}}).bracket(X_e).coordinates(idx))
                for pos, c in t.items():
                    rows.setdefault(offset + pos, {})[j] = c * rational(1, den)
            offset += dim
        comps[k] = [
            VectorField.from_terms(coords, _terms_of({cand[j]: c for j, c in vec.items()}))
            for vec in kernel_basis(list(rows.values()), len(cand))
        ]
    return {k: comps[k] for k in range(1, max_degree + 1)}


def _terms_of(coefficients):
    """The term dict {v: {m: c}} of {(v, m): c}."""
    terms = {}
    for (v, m), c in coefficients.items():
        terms.setdefault(v, {})[m] = c
    return terms


def realization_failures(g, fields, coords, truncation):
    """The basis pairs (a, b), a <= b, whose fields do not bracket as g's table says.

    fields[k] is the vector field on coords of g's k-th basis vector: the
    realization of a prolongation, or the fields of a contact or pericontact
    span.  For every pair of total degree at most truncation, [X_a, X_b] is
    computed by VectorField.bracket and compared with sum_t c^t_ab X_t, the
    table's bracket of a and b on the fields; the mirror pair (b, a) follows
    by super-antisymmetry on both sides.
    """
    bad = []
    for a in range(len(g)):
        for b in range(a, len(g)):
            if g.degree(a) + g.degree(b) > truncation:
                continue
            rhs = VectorField(coords)
            for t, c in g.bracket_basis(a, b).items():
                rhs = rhs + fields[t].scale(c)
            if fields[a].bracket(fields[b]) != rhs:
                bad.append((g.ident(a), g.ident(b)))
    return bad


def _leibniz_defect(g, mat, parity, i, j):
    """D[i, j] - [D i, j] - (-1)^{p_D p_i} [i, D j] on g's basis, D acting by mat = {(r, c): scalar}."""

    def apply(x):
        out = {}
        for (r, c), v in mat.items():
            if c in x:
                out[r] = out.get(r, ZERO) + v * x[c]
        return out

    defect = dict(apply(g.bracket_basis(i, j)))
    sign = -1 if parity and g.parity(i) else 1
    for part, s in ((g.bracket(apply({i: ONE}), {j: ONE}), 1), (g.bracket({i: ONE}, apply({j: ONE})), sign)):
        for t, c in part.items():
            defect[t] = defect.get(t, ZERO) - s * c
    return {t: c for t, c in defect.items() if c}


def der0_failures(g, der):
    """What breaks der = degree_zero_derivations(g) as der0 of g, as a list of strings.

    Each D_k, acting by der.matrices[k] on g's basis with its parity, must
    satisfy Leibniz on every basis pair of g.  For each parity p, the number
    of D_k of parity p must be the nullity of the dense Leibniz system: one
    column per matrix unit E_rc of parity p and degree 0 (deg r = deg c,
    p_r + p_c = p), holding the Leibniz defects of E_rc on every basis pair,
    its rank taken by dense_rank_fraction_free.
    """
    bad = []
    n = len(g)
    for k, mat in enumerate(der.matrices):
        for i in range(n):
            for j in range(n):
                if _leibniz_defect(g, mat, der.parity(k), i, j):
                    bad.append(f"{der.ident(k)} breaks Leibniz at [{g.ident(i)},{g.ident(j)}]")
    for p in (0, 1):
        units = [
            (r, c)
            for r in range(n)
            for c in range(n)
            if g.degree(r) == g.degree(c) and (g.parity(r) + g.parity(c)) % 2 == p
        ]
        columns = []
        for r, c in units:
            col = {}
            for i in range(n):
                for j in range(n):
                    col.update(((i, j, t), v) for t, v in _leibniz_defect(g, {(r, c): ONE}, p, i, j).items())
            columns.append(col)
        keys = sorted({key for col in columns for key in col})
        rank = dense_rank_fraction_free([[col.get(key, ZERO) for key in keys] for col in columns]) if keys else 0
        count = sum(1 for k in range(len(der)) if der.parity(k) == p)
        if count != len(units) - rank:
            bad.append(f"{count} derivations of parity {p}, nullity {len(units) - rank}")
    return bad


# -- the contact and pericontact forms, and maps between Grassmann real forms ----


class OneForm:
    """omega = sum_a f_a dx_a with left polynomial coefficients."""

    def __init__(self, coords, coeffs):
        self.coords = coords
        self.coeffs = {v: p for v, p in coeffs.items() if p}

    def pair(self, field):
        """iota_X omega with iota_X(f dx_a) = (-1)^{p(f)(p(X)+1)} f X(x_a).

        The normalization makes <df, X> = X(f); the inner derivation iota_X
        has parity p(X)+1 and passes left coefficients with a Koszul sign.
        """
        # iota_X is odd for an even X: its sign then negates the odd monomials of f
        negate_odd = field.parity() == 0
        out = {}
        for v, f in self.coeffs.items():
            g = field.terms.get(v)
            if g is None:
                continue
            adjusted = {m: (-c if negate_odd and mono_parity(m, self.coords) else c) for m, c in f.terms.items()}
            add_product(out, adjusted, g, self.coords.parities)
        return Polynomial(self.coords, out)


def contact_form(coords):
    """alpha1 = dt - sum(p dq - q dp) - sum(ξ dη + η dξ) [+ θ dθ]."""
    meta = coords.meta
    n, m = meta["n"], meta["m"]
    k = m // 2
    coeffs = {coords.index["t"]: coords.one()}
    for i in range(n):
        coeffs[coords.index[f"q_{i + 1}"]] = -coords.var(f"p_{i + 1}")
        coeffs[coords.index[f"p_{i + 1}"]] = coords.var(f"q_{i + 1}")
    for j in range(k):
        coeffs[coords.index[f"η_{j + 1}"]] = -coords.var(f"ξ_{j + 1}")
        coeffs[coords.index[f"ξ_{j + 1}"]] = -coords.var(f"η_{j + 1}")
    if m % 2:
        coeffs[coords.index["θ"]] = coords.var("θ")
    return OneForm(coords, coeffs)


def pericontact_form(coords):
    """alpha0 = dtau + sum(ξ dq + q dξ)."""
    n = coords.meta["n"]
    coeffs = {coords.index["τ"]: coords.one()}
    for i in range(n):
        coeffs[coords.index[f"q_{i + 1}"]] = coords.var(f"ξ_{i + 1}")
        coeffs[coords.index[f"ξ_{i + 1}"]] = coords.var(f"q_{i + 1}")
    return OneForm(coords, coeffs)


def _lie_identity_holds(X, alpha, factor, coords):
    """Compare L_X(alpha) with factor*alpha through pairings with every d_b."""
    px = X.parity()
    if px is None:
        return True
    scaled = OneForm(coords, {v: factor * c for v, c in alpha.coeffs.items()})
    for b in range(len(coords)):
        db = coordinate_field(coords, b)
        s = px * (coords.parities[b] + 1)
        sign = -1 if s % 2 else 1
        lhs = (X.apply(alpha.pair(db)) - alpha.pair(X.bracket(db))).scale(sign)
        if lhs != scaled.pair(db):
            return False
    return True


def check_contact_invariance(f, coords):
    """L_{K_f}(alpha1) must equal K_1(f) alpha1 (the distribution is preserved)."""
    alpha = contact_form(coords)
    K = contact_field(f, coords)
    factor = f.deriv(coords.index["t"]).scale(rational(2))
    return _lie_identity_holds(K, alpha, factor, coords)


def check_pericontact_invariance(f, coords):
    """L_{M_f}(alpha0) = -(-1)^{p(f)} M_1(f) alpha0, with M_1(f) = 2 df/dtau."""
    alpha = pericontact_form(coords)
    M = pericontact_field(f, coords)
    pf = f.parity()
    sgn = -1 if pf else 1
    factor = f.deriv(coords.index["τ"]).scale(rational(-2) * sgn)
    return _lie_identity_holds(M, alpha, factor, coords)


def composed_iso_is_algebra_map(rho1, rho2):
    """CanonicalIso(rho2)^{-1} . CanonicalIso(rho1): RE_1 -> RE_2 multiplicative.

    Both structures must be on the same number of generators, else ValueError.
    """
    if rho1.n != rho2.n:
        raise ValueError(f"real structures on {rho1.n} and {rho2.n} generators")
    iso1 = CanonicalIso(rho1)
    iso2 = CanonicalIso(rho2)
    # psi sends the k-th normalized monomial of rho1 to that of rho2
    pairs = list(zip(iso1.monomials, iso2.monomials))
    return all(iso2.image(iso1.apply(a * b)) == c * d for a, c in pairs for b, d in pairs)
