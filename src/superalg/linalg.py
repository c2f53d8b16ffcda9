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

The elimination itself runs on integers, because the cost of exact
elimination here is the overhead of each rational operation, not the size of
the coefficients.  Each row is cleared of denominators, updates are
fraction-free cross-multiplications followed by division by the row's
content (the gcd of its entries), and only the output rows are divided by
their pivots (Bareiss, Math. Comp. 22 (1968) 565-578; Geddes, Czapor and
Labahn, Algorithms for Computer Algebra, ch. 9).  Every step multiplies a row
by a nonzero scalar, which changes neither the row space nor the zero
pattern, so the pivots, the key order of every row and the RREF are those of
elimination over QQ.

Over QQ(i) the same elimination runs on the realification, as a real space
with a complex structure on it.  Column c becomes the real columns 2c (the
real part) and 2c + 1 (the imaginary part), and each row v becomes the two
rows v and i*v, where i*v holds (-im, re) in each column pair.  The real row
space is then the realification of the complex one: it is stable under i,
and its column pairs keep their order.  If the complex RREF has rows r_k with
pivots c_k, the realified r_k (pivot 2c_k, zero at 2c_k + 1) and i*r_k
(pivot 2c_k + 1, zero at 2c_k) are in reduced row echelon form and span that
real space, so they are its unique real RREF.  The complex RREF is read back
from the rows with even pivots.  No arithmetic on Gaussian integers is
needed.

SpanSolver keeps the integer pivot rows of that elimination as they are,
without the final division, and reduces each query the same way: the query
is cleared to integers once (realified when it or the span is over QQ(i))
and every step is a fraction-free cross-multiplication whose overall scale
is tracked exactly.  reduce hands back the residual cleared, (den, t) with
den a positive int and t / den the canonical residual; t holds ints, or
GaussianRationals with integral parts when the query or the span has a
GaussianRational.  Callers that go on computing on integers take t as it
is: a residual scaled by den spans the same row space, and a kernel column
scaled by den scales the kernel vector back.  solve divides the combination
once, into field scalars.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import ONE, GaussianRational, inexact, is_rational, rational


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

    def nnz(self):
        return len(self.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def _integer_row(row):
    """(den, den * row) for a dict of rationals: den is the lcm of the denominators.

    The scaled entries are ints; zeros are dropped and keys keep their order.
    A row whose values are all ints, as the cleared differential_matrix rows
    over QQ are, is taken as it is: den is 1 and the entries are a copy of
    the row without its zeros.  A value that is not
    exact (a float, say) raises TypeError.
    """
    if {int}.issuperset(map(type, row.values())):
        return 1, {c: v for c, v in row.items() if v}
    try:
        den = lcm(*[v.denominator for v in row.values()])
    except AttributeError:
        raise inexact(next(v for v in row.values() if not is_rational(v))) from None
    if den == 1:
        return 1, {c: v.numerator for c, v in row.items() if v}
    return den, {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _primitive(row):
    """An integer row divided by its content, so that its entries are coprime."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _has_gaussian(values):
    return GaussianRational in map(type, values)


def _realified(row):
    """A row over QQ(i) on the real columns: column c becomes 2c (re) and 2c + 1 (im).

    Zero parts may stay in the result; _integer_row drops them.
    """
    real = {}
    for c, x in row.items():
        if type(x) is GaussianRational:
            real[2 * c], real[2 * c + 1] = x.re, x.im
        elif is_rational(x):
            real[2 * c] = x
        else:
            raise inexact(x)
    return real


def _realified_rows(rows):
    """The rows v and i*v on the real columns, for each row v over QQ(i).

    i*v holds (-im, re) in each column pair where v holds (re, im).
    """
    out = []
    for row in rows:
        v = _realified(row)
        out += (v, {k ^ 1: -x if k & 1 else x for k, x in v.items()})
    return out


def _complexified(real, den=1):
    """The row over QQ(i) whose realification is real / den, for a row of ints."""
    out = {}
    for k in real:
        c = k >> 1
        if c not in out:
            out[c] = GaussianRational(rational(real.get(2 * c, 0), den), rational(real.get(2 * c + 1, 0), den))
    return out


def _check_columns(columns, cols):
    outside = [c for c in columns if not 0 <= c < cols]
    if outside:
        raise ValueError(f"column {min(outside)} outside range({cols})")


def _integer_rref(rows, cols):
    """The integer core of rref_rows over QQ: [(pivot col, integer pivot row)] in pivot order.

    Each row is fully reduced (zero in every other pivot column) and has
    coprime entries; it is the RREF row times its pivot entry row[col] > 0.
    """
    work = [_primitive(_integer_row(r)[1]) for r in rows]
    occupancy = {}
    for ridx, r in enumerate(work):
        for c in r:
            occupancy.setdefault(c, set()).add(ridx)
    _check_columns(occupancy, cols)
    remaining = set(range(len(work)))
    pivots = []
    for c in range(cols):
        occ = occupancy.get(c)
        if not occ:
            continue
        pr = min(((len(work[r]), r) for r in occ if r in remaining), default=(0, -1))[1]
        if pr < 0:
            continue
        remaining.discard(pr)
        prow = work[pr]
        p = prow[c]
        if p < 0:
            prow = work[pr] = {cc: -v for cc, v in prow.items()}
            p = -p
        for r2 in list(occ):
            if r2 == pr:
                continue
            row2 = work[r2]
            f = row2[c]
            g = gcd(p, f)
            a, nb = p // g, -(f // g)
            if a != 1:
                row2 = work[r2] = {cc: a * v for cc, v in row2.items()}
            for cc, pv in prow.items():
                old = row2.get(cc)
                if old is None:
                    row2[cc] = nb * pv
                    occupancy.setdefault(cc, set()).add(r2)
                else:
                    new = old + nb * pv
                    if new:
                        row2[cc] = new
                    else:
                        del row2[cc]
                        occupancy[cc].discard(r2)
            if row2:
                work[r2] = _primitive(row2)
        pivots.append((c, pr))
    return [(c, work[pr]) for c, pr in pivots]


def rref_rows(rows, cols):
    """Reduced row echelon form of a list of row dicts with columns in range(cols).

    Returns (pivot_cols, rref) where rref[k] is the row whose pivot is
    pivot_cols[k], scaled to pivot 1, fully reduced.  Input rows are not
    mutated; a nonzero entry in a column outside range(cols) raises
    ValueError, and a value that is not exact raises TypeError.  The result
    is the canonical RREF of the row space; its entries are rationals, or
    GaussianRational when any input entry is one.

    The elimination runs on integers.  Each row is cleared to coprime
    integers.  A pivot row is negated if its pivot p is negative.  Every other
    row r with entry f in the pivot column becomes (p/g) r - (f/g) pivot_row,
    with g = gcd(p, f), and is then divided by its content.  The pivot rows
    are divided by their pivots only when the output is built.  Over QQ(i)
    the rows v and i*v are eliminated on the real columns 2c, 2c + 1, and the
    rows with even pivots 2c are read back as the complex RREF.
    """
    if not _has_gaussian(v for r in rows for v in r.values()):
        pivots = _integer_rref(rows, cols)
        return [c for c, _ in pivots], [{cc: rational(v, row[c]) for cc, v in row.items()} for c, row in pivots]
    _check_columns({c for r in rows for c, v in r.items() if v}, cols)
    pivots = [(c, row) for c, row in _integer_rref(_realified_rows(rows), 2 * cols) if not c % 2]
    return [c // 2 for c, _ in pivots], [_complexified(row, row[c]) for c, row in pivots]


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


def _add_multiple(t, m, row):
    """t += m * row in place, dropping the entries that cancel."""
    for c, v in row.items():
        old = t.get(c)
        if old is None:
            t[c] = m * v
        else:
            new = old + m * v
            if new:
                t[c] = new
            else:
                del t[c]


class SpanSolver:
    """Reduce against / express in a fixed spanning set, built once, queried often.

    Keeps the RREF of the span together with the combination bookkeeping, so
    solve() recovers coordinates with respect to the original vectors.  The
    spanning vectors must have their indices in range(dim): index dim + j
    holds the combination column of vector j.

    The pivot rows are kept as the integer rows of the elimination: row and
    combination part together are coprime ints whose pivot entry is p > 0,
    the RREF row times p.  A span with a GaussianRational entry is kept
    realified, as rref_rows eliminates it: the rows v_j and i*v_j on the real
    columns, with the combination columns 2j for v_j and 2j + 1 for i*v_j, so
    each complex pivot c has the real pivot rows 2c and 2c + 1.  A query is
    cleared to integers once, reduced fraction-free and divided once at the
    end, so that its values are those of reducing over the field against the
    RREF.  pivot_columns holds the pivot columns over the field, the c of the
    real pivots 2c and 2c + 1 of a realified span; rank is their number.
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
            row[dim + j] = 1
            rows.append(row)
        self._gaussian = _has_gaussian(x for r in rows for x in r.values())
        cols = dim + len(rows)
        if self._gaussian:
            rows, dim, cols = _realified_rows(rows), 2 * dim, 2 * cols
        # pivot column -> (pivot entry p, the integer row restricted to the
        # ambient space, its combination part)
        self.pivots = {}
        for c, row in _integer_rref(rows, cols):
            if c < dim:
                self.pivots[c] = (
                    row[c],
                    {cc: v for cc, v in row.items() if cc < dim},
                    {cc - dim: v for cc, v in row.items() if cc >= dim},
                )
        self.pivot_columns = {c // 2 for c in self.pivots} if self._gaussian else set(self.pivots)
        self.rank = len(self.pivot_columns)
        self._realified_pivots = None

    def _pivots_over(self, gaussian):
        """The pivot rows on the query's columns: the real ones when the span or the query is over QQ(i).

        A span over QQ queried with a GaussianRational places each integer row
        at 2c and, as i times it, at 2c + 1 on the first such query; nothing
        is eliminated again.
        """
        if not gaussian or self._gaussian:
            return self.pivots
        if self._realified_pivots is None:
            self._realified_pivots = {
                2 * c + s: (p, {2 * cc + s: v for cc, v in row.items()}, {2 * j + s: v for j, v in combo.items()})
                for c, (p, row, combo) in self.pivots.items()
                for s in (0, 1)
            }
        return self._realified_pivots

    def reduce(self, vec, want_combo=False):
        """The cleared residual (den, t) of vec modulo the span; with want_combo also q.

        den is a positive int and t a new dict of nonzeros with t / den the
        canonical representative of vec modulo the span, so t is empty exactly
        when vec lies in the span.  q / den is the combination of the spanning
        vectors used: vec = t / den + sum_j (q[j] / den) v_j.  The values of t
        and q are ints, or GaussianRationals with integral parts when vec or a
        spanning vector has a GaussianRational entry.  A caller that needs
        field scalars divides once, as solve does.

        The pivot rows are fully reduced: each has no entry in any other pivot
        column, so clearing one pivot column never touches another, and one
        pass over the pivot columns present in vec is the whole elimination.
        vec is cleared to integers t = den * vec (on the real columns over
        QQ(i)).  For a pivot row with pivot p and t's entry f there,
        g = gcd(p, f), t becomes (p/g) t - (f/g) row, the combination q becomes
        (p/g) q + (f/g) row_combination, and den is multiplied by p/g > 0, so
        that t / den is always vec minus the combination of the RREF rows used
        so far and q / den that combination.  Over QQ(i), t and q are read
        back from the real columns at the end.
        """
        gaussian = self._gaussian or _has_gaussian(vec.values())
        pivots = self._pivots_over(gaussian)
        den, t = _integer_row(_realified(vec) if gaussian else vec)
        combo = {}
        for c in [c for c in t if c in pivots]:
            p, row, row_combo = pivots[c]
            f = t[c]
            g = gcd(p, f)
            a, fg = p // g, f // g
            if a != 1:
                den = den * a
                t = {cc: a * v for cc, v in t.items()}
                combo = {j: a * v for j, v in combo.items()}
            _add_multiple(t, -fg, row)
            if want_combo:
                _add_multiple(combo, fg, row_combo)
        if gaussian:
            t, combo = _complexified(t), _complexified(combo)
        return (den, t, combo) if want_combo else (den, t)

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[1]

    def solve(self, vec):
        """Coefficients {j: c} over the original vectors reproducing vec, or None.

        The coefficients are field scalars: rationals, or GaussianRationals
        when vec or a spanning vector has one.
        """
        den, residual, combo = self.reduce(vec, want_combo=True)
        if residual:
            return None
        if not combo or not isinstance(next(iter(combo.values())), GaussianRational):
            return {j: rational(v, den) for j, v in combo.items()}
        # the parts are integral: their numerators are the real columns' ints
        return {
            j: GaussianRational(rational(v.re.numerator, den), rational(v.im.numerator, den))
            for j, v in combo.items()
        }


def primitive_integer_vector(vec):
    """Scale a list of rational scalars to coprime integers with positive leading entry.

    Gaussian entries are scaled jointly (treating re and im as components);
    the returned list then contains Gaussian integers.
    """
    ints = _primitive(_integer_row(_realified(dict(enumerate(vec))))[1])
    if ints and next(iter(ints.values())) < 0:
        ints = {k: -x for k, x in ints.items()}
    out = []
    for k in range(len(vec)):
        re, im = int(ints.get(2 * k, 0)), int(ints.get(2 * k + 1, 0))
        out.append(GaussianRational(re, im) if im else re)
    return out
