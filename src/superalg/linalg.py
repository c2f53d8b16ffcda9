"""Exact sparse linear algebra over QQ and QQ(i).

Everything upstream (prolongations, cohomology, real forms) reduces to ranks,
kernels, row spaces and span reductions computed here.

There is one vector form: a dict {index: scalar} holding only nonzeros, so an
empty dict is the zero vector.  Test a vector by truthiness, never with any():
a vector whose only nonzero sits at index 0 has the falsy key 0.  Matrices are
lists of such row dicts together with a column count.

There is one elimination routine, rref_rows: Gauss-Jordan with pivots scaled
to 1 and columns processed left to right.  Within a column it takes the
remaining row with the fewest nonzeros (ties to the lowest index), which keeps
fill-in down on tall, very sparse matrices.  The choice of pivot row does not
change the result: the pivot columns and the fully reduced pivot rows are
determined by the row space alone, because the reduced row echelon form is
unique.  So every downstream basis and golden file is reproducible bit for
bit.
"""

from __future__ import annotations

from .scalars import ONE, ZERO


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

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def nnz(self):
        return len(self.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def rref_rows(rows, cols):
    """Reduced row echelon form of a list of row dicts with columns in range(cols).

    Returns (pivot_cols, rref) where rref[k] is the row whose pivot is
    pivot_cols[k], scaled to pivot 1, fully reduced.  Input rows are not
    mutated.  The result is the canonical RREF of the row space.
    """
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


def rank(rows, cols) -> int:
    return len(rref_rows(rows, cols)[0])


def kernel_basis(rows, cols):
    """Basis of {v : row . v = 0 for every row}, one vector per free column, ascending."""
    pivot_cols, rref = rref_rows(rows, cols)
    pivot_set = set(pivot_cols)
    basis = {f: {f: ONE} for f in range(cols) if f not in pivot_set}
    for p, row in zip(pivot_cols, rref):
        for f, v in row.items():
            if f != p:
                basis[f][p] = -v
    return list(basis.values())


def row_space_basis(vectors, dim):
    """Canonical (RREF) basis of the span of the given vectors."""
    return rref_rows(list(vectors), dim)[1]


class SpanSolver:
    """Reduce against / express in a fixed spanning set, built once, queried often.

    Keeps the RREF of the span together with the combination bookkeeping, so
    solve() recovers coordinates with respect to the original vectors.  The
    spanning vectors must have their indices in range(dim): index dim + j
    holds the combination column of vector j.
    """

    def __init__(self, vectors, dim):
        rows = []
        for j, v in enumerate(vectors):
            row = {}
            for c, x in v.items():
                if x:
                    if not 0 <= c < dim:
                        raise ValueError(f"vector {j} has index {c} outside range({dim})")
                    row[c] = x
            row[dim + j] = ONE
            rows.append(row)
        pivot_cols, rref = rref_rows(rows, dim + len(rows))
        # pivot column -> (its row restricted to the ambient space, combination part)
        self.pivots = {}
        for c, row in zip(pivot_cols, rref):
            if c < dim:
                self.pivots[c] = (
                    {cc: v for cc, v in row.items() if cc < dim},
                    {cc - dim: v for cc, v in row.items() if cc >= dim},
                )
        self.rank = len(self.pivots)

    def reduce(self, vec, want_combo=False):
        """Canonical representative of vec modulo the span (and the combination used).

        The residual is a new dict of nonzeros, empty when vec lies in the span.
        The pivot rows are fully reduced: each has no entry in any other pivot
        column, so clearing one pivot column never touches another, and one
        pass over the pivot columns present in vec is the whole elimination.
        """
        t = {c: x for c, x in vec.items() if x}
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
        if want_combo:
            return t, combo
        return t

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def solve(self, vec):
        """Coefficients {j: c} over the original vectors reproducing vec, or None."""
        residual, combo = self.reduce(vec, want_combo=True)
        return None if residual else combo


def primitive_integer_vector(vec):
    """Scale a list of rational scalars to coprime integers with positive leading entry.

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