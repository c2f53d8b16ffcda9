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
representation check multiplies an action's matrices entry by entry.  The
linear algebra oracles first make every entry exact (an integer or a field
scalar), so that int input never meets true division.  canonical_sha256 is
the one digest every pinned document and report in the tests is compared by.
"""

import hashlib
import json
from itertools import product

from superalg.grassmann import GrassmannElement
from superalg.polyvf import VectorField
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


def representation_failures(action):
    """The basis pairs (x, y) of g0 whose matrices' supercommutator is not the matrix of [x, y].

    The matrices are {(r, c): scalar} dicts, multiplied entry by entry here;
    [a, b] = ab - (-1)^{p(a)p(b)} ba.
    """
    g, mats = action.algebra, action.matrices

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
