"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own elimination and enumeration code
paths: the rank oracle is dense fraction-free Gaussian elimination, the RREF
oracle is dense Gauss-Jordan with lowest-index pivot rows, the dimension
oracles enumerate admissible index words directly; the Nijenhuis and
Grassmann oracles evaluate their formulas term by term on the scalars as
given.  canonical_sha256 is the one digest every pinned document and report in
the tests is compared by.
"""

import hashlib
import json
from itertools import product

from superalg.grassmann import GrassmannElement
from superalg.scalars import ZERO, gaussian, rational


def canonical_sha256(doc):
    """SHA-256 of the canonical JSON of a document: sorted keys, no spaces, UTF-8."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def dense_rank_fraction_free(dense):
    """Rank via Bareiss-style fraction-free elimination on a dense copy."""
    m = [list(row) for row in dense]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def dense_rref(rows, cols):
    """(pivot_cols, rref) of a list of row dicts, eliminated on dense lists.

    Each column takes the lowest-index remaining row as pivot; the rows come
    back as dicts of nonzeros, like superalg.linalg.rref_rows.
    """
    work = [[r.get(c, ZERO) for c in range(cols)] for r in rows]
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
