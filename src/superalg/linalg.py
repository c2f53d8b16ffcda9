"""Exact sparse linear algebra over QQ and QQ(i).

Everything upstream (prolongations, cohomology, real forms) reduces to ranks,
kernels, row spaces and span reductions computed here.  The elimination is plain
Gauss-Jordan with pivots scaled to 1 and columns processed left to right.
Within a column the sparse path takes the remaining row with the fewest
nonzeros (ties to the lowest index), which keeps fill-in down on tall, very
sparse matrices; the dense path takes the lowest-index remaining row.  The
choice of pivot row does not change the result: the pivot columns and the
fully reduced pivot rows are determined by the row space alone, because the
reduced row echelon form is unique.  So every downstream basis and golden file
is reproducible bit for bit.

Matrices below roughly 64x64 run on dense lists; larger ones use dict-of-dict
rows (cohomology differentials are large but very sparse).  Vectors are dense
lists or dicts {index: scalar} holding only nonzeros; SpanSolver accepts both.
"""

from __future__ import annotations

from .scalars import ZERO, rational

DENSE_LIMIT = 64


class SparseMatrix:
    """Immutable-by-convention sparse matrix; entries maps (row, col) -> scalar."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) out of range for {rows}x{cols}")
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def from_dense(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n):
        one = rational(1)
        return cls(n, n, {(k, k): one for k in range(n)})

    def to_dense(self):
        data = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            data[r][c] = v
        return data

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def mul_vector(self, vec):
        out = [ZERO] * self.rows
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x:
                out[r] = out[r] + v * x
        return out

    def nnz(self):
        return len(self.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


# -- elimination core --------------------------------------------------------


def rref_rows(rows, cols):
    """Reduced row echelon form of a list of row dicts.

    Returns (pivot_cols, rref) where rref[k] is the row whose pivot is
    pivot_cols[k], scaled to pivot 1, fully reduced.  Input rows are not
    mutated.  The result is the canonical RREF of the row space.
    """
    if len(rows) < DENSE_LIMIT and cols < DENSE_LIMIT:
        return _rref_dense(rows, cols)
    return _rref_sparse(rows, cols)


def _rref_dense(rows, cols):
    work = []
    for r in rows:
        row = [ZERO] * cols
        for c, v in r.items():
            row[c] = v
        work.append(row)
    nrows = len(work)
    used = [False] * nrows
    pivots = []
    for c in range(cols):
        pr = -1
        for r in range(nrows):
            if not used[r] and work[r][c]:
                pr = r
                break
        if pr < 0:
            continue
        used[pr] = True
        piv = work[pr][c]
        if piv != 1:
            inv = 1 / piv
            work[pr] = [v * inv for v in work[pr]]
        prow = work[pr]
        for r in range(nrows):
            if r == pr:
                continue
            f = work[r][c]
            if f:
                wr = work[r]
                for cc in range(c, cols):
                    pv = prow[cc]
                    if pv:
                        wr[cc] = wr[cc] - f * pv
        pivots.append((c, pr))
    out = []
    for c, pr in pivots:
        out.append({cc: v for cc, v in enumerate(work[pr]) if v})
    return [c for c, _ in pivots], out


def _rref_sparse(rows, cols):
    work = [dict(r) for r in rows]
    occupancy = {}
    for ridx, r in enumerate(work):
        for c in r:
            occupancy.setdefault(c, set()).add(ridx)
    remaining = set(range(len(work)))
    pivots = []
    for c in range(cols):
        occ = occupancy.get(c)
        if not occ:
            continue
        pr = min((r for r in occ if r in remaining), key=lambda r: (len(work[r]), r), default=-1)
        if pr < 0:
            continue
        remaining.discard(pr)
        prow = work[pr]
        piv = prow[c]
        if piv != 1:
            inv = 1 / piv
            for cc in list(prow):
                prow[cc] = prow[cc] * inv
        for r2 in list(occ):
            if r2 == pr:
                continue
            row2 = work[r2]
            f = row2.get(c)
            if not f:
                continue
            for cc, pv in prow.items():
                new = row2.get(cc, ZERO) - f * pv
                if new:
                    if cc not in row2:
                        occupancy.setdefault(cc, set()).add(r2)
                    row2[cc] = new
                else:
                    if cc in row2:
                        del row2[cc]
                        occupancy[cc].discard(r2)
        pivots.append((c, pr))
    return [c for c, _ in pivots], [work[pr] for _, pr in pivots]


# -- public operations -------------------------------------------------------


def rank(m: SparseMatrix) -> int:
    pivots, _ = rref_rows(m.row_dicts(), m.cols)
    return len(pivots)


def kernel_basis(m: SparseMatrix):
    """Basis of {v : m v = 0} as dense column vectors, one per free column."""
    pivot_cols, rows = rref_rows(m.row_dicts(), m.cols)
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[f] = rational(1)
        for p, row in zip(pivot_cols, rows):
            v = row.get(f)
            if v:
                vec[p] = -v
        basis.append(vec)
    return basis


def row_space_basis(vectors, dim):
    """Canonical (RREF) basis of the span of the given vectors."""
    rows = [_vec_to_dict(v) for v in vectors]
    _, rref = rref_rows(rows, dim)
    return [_dict_to_vec(r, dim) for r in rref]


class SpanSolver:
    """Reduce against / express in a fixed spanning set, built once, queried often.

    Keeps the RREF of the span together with the combination bookkeeping, so
    solve() recovers coordinates with respect to the original vectors.
    """

    def __init__(self, vectors, dim):
        self.dim = dim
        vecs = list(vectors)
        self.nvec = len(vecs)
        rows = []
        for j, v in enumerate(vecs):
            row = _vec_to_dict(v)
            row[dim + j] = rational(1)
            rows.append(row)
        pivot_cols, rref = rref_rows(rows, dim + self.nvec)
        # pivot column -> (its row restricted to the ambient space, combination part)
        self.pivots = {}
        for c, row in zip(pivot_cols, rref):
            if c < dim:
                self.pivots[c] = (
                    {cc: v for cc, v in row.items() if cc < dim},
                    {cc - dim: v for cc, v in row.items() if cc >= dim},
                )
        self.pivot_cols = list(self.pivots)
        self.rank = len(self.pivots)

    def reduce(self, vec, want_combo=False):
        """Canonical representative of vec modulo the span (and the combination used).

        vec is a dense list or a dict {index: scalar}; the residual comes back
        in the same form (a dict holds only nonzeros, so an empty dict is zero).
        The pivot rows are fully reduced: each has no entry in any other pivot
        column, so clearing one pivot column never touches another, and one
        pass over the pivot columns present in vec is the whole elimination.
        """
        t = _vec_to_dict(vec)
        combo = {} if want_combo else None
        for c in [c for c in t if c in self.pivots]:
            f = t[c]
            row, row_combo = self.pivots[c]
            for cc, v in row.items():
                nv = t.get(cc, ZERO) - f * v
                if nv:
                    t[cc] = nv
                else:
                    del t[cc]
            if want_combo:
                for j, v in row_combo.items():
                    nv = combo.get(j, ZERO) + f * v
                    if nv:
                        combo[j] = nv
                    else:
                        del combo[j]
        residual = t if isinstance(vec, dict) else _dict_to_vec(t, self.dim)
        if want_combo:
            return residual, combo
        return residual

    def contains(self, vec) -> bool:
        return not self.reduce(_vec_to_dict(vec))

    def solve(self, vec):
        """Coefficients over the original vectors reproducing vec, or None."""
        residual, combo = self.reduce(_vec_to_dict(vec), want_combo=True)
        if residual:
            return None
        out = [ZERO] * self.nvec
        for j, v in combo.items():
            out[j] = v
        return out


def _vec_to_dict(v):
    if isinstance(v, dict):
        return {c: x for c, x in v.items() if x}
    return {c: x for c, x in enumerate(v) if x}


def _dict_to_vec(d, dim):
    out = [ZERO] * dim
    for c, v in d.items():
        if c < dim:
            out[c] = v
    return out


def primitive_integer_vector(vec):
    """Scale a rational vector to coprime integers with positive leading entry.

    Gaussian entries are scaled jointly (treating re and im as components);
    the returned list then contains Gaussian integers.
    """
    from math import gcd

    from .scalars import GaussianRational, real_imag

    pairs = []
    gaussian = False
    for v in vec:
        if isinstance(v, GaussianRational):
            gaussian = True
        re, im = real_imag(v) if not isinstance(v, int) else (v, 0)
        pairs.append((re, im))
    nums = []
    dens = []
    for re, im in pairs:
        for x in (re, im):
            nums.append(int(x.numerator) if hasattr(x, "numerator") else int(x))
            dens.append(int(x.denominator) if hasattr(x, "denominator") else 1)
    if not any(nums):
        return [0] * len(vec)
    lcm = 1
    for d in dens:
        lcm = lcm * d // gcd(lcm, d)
    ints = [n * (lcm // d) for n, d in zip(nums, dens)]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    if not gaussian:
        return [ints[2 * k] for k in range(len(vec))]
    out = []
    for k in range(len(vec)):
        re, im = ints[2 * k], ints[2 * k + 1]
        out.append(re if not im else GaussianRational(re, im))
    return out
