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

The elimination itself runs on integers, or on Gaussian integers over QQ(i),
because the cost of exact elimination here is the overhead of each rational
operation, not the size of the coefficients.  Each row is cleared of
denominators, updates are fraction-free cross-multiplications followed by
division by the row's content (the gcd of its entries), and only the output
rows are divided by their pivots (Bareiss, Math. Comp. 22 (1968) 565-578;
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, ch. 9).  Every
step multiplies a row by a nonzero scalar, which changes neither the row
space nor the zero pattern, so the pivots, the key order of every row and the
RREF are those of elimination over the field.

SpanSolver keeps the integer pivot rows of that elimination as they are,
without the final division, and reduces each query the same way: the query
is cleared to integers once and every step is a fraction-free cross-
multiplication whose overall scale is tracked exactly.  reduce hands back
the residual cleared, (den, t) with den a positive int and t / den the
canonical residual; t holds ints, or GaussianRationals with integral parts
when the query or the span has a GaussianRational.  Callers that go on
computing on integers take t as it is: a residual scaled by den spans the
same row space, and a kernel column scaled by den scales the kernel vector
back.  solve divides the combination once, into field scalars.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import ONE, GaussianRational, rational, real_imag


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


class _GaussianInteger:
    """re + im*i with int parts: an entry of rref_rows over QQ(i).

    It has only what the elimination loop uses: +, unary -, *, exact //,
    truth and comparison with 1.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        return not self.im and self.re == other

    def __neg__(self):
        return _GaussianInteger(-self.re, -self.im)

    def __add__(self, o):
        return _GaussianInteger(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return _GaussianInteger(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __floordiv__(self, o):
        """The exact quotient self / o; o must divide self in ZZ[i]."""
        n = o.re * o.re + o.im * o.im
        return _GaussianInteger(
            (self.re * o.re + self.im * o.im) // n, (self.im * o.re - self.re * o.im) // n
        )


def _integer_row(row):
    """(den, den * row) for a dict of rationals: den is the lcm of the denominators.

    The scaled entries are ints; zeros are dropped and keys keep their order.
    """
    den = lcm(*[v.denominator for v in row.values()])
    if den == 1:
        return 1, {c: v.numerator for c, v in row.items() if v}
    return den, {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _primitive(row, content):
    """An integer row divided by its content, so that its entries are coprime."""
    g = content(*row.values())
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _divide_rational(row, p):
    return {c: rational(v, p) for c, v in row.items()}


def _real_parts(items):
    """{(key, 0): re, (key, 1): im} for (key, scalar) pairs."""
    parts = {}
    for key, v in items:
        parts[key, 0], parts[key, 1] = real_imag(v)
    return parts


def _clear_gaussian(row):
    den, ints = _integer_row(_real_parts(row.items()))
    return _GaussianInteger(den, 0), {
        c: _GaussianInteger(ints.get((c, 0), 0), ints.get((c, 1), 0)) for c, v in row.items() if v
    }


def _gaussian_gcd(*xs):
    """A gcd in ZZ[i] of Gaussian integers, normalized to re > 0, im >= 0 (or 0).

    Euclid's algorithm with each quotient rounded to the nearest Gaussian
    integer.  A unit gcd comes back as exactly 1.
    """
    a_re = a_im = 0
    for x in xs:
        b_re, b_im = x.re, x.im
        while b_re or b_im:
            n2 = 2 * (b_re * b_re + b_im * b_im)
            q_re = (2 * (a_re * b_re + a_im * b_im) + n2 // 2) // n2
            q_im = (2 * (a_im * b_re - a_re * b_im) + n2 // 2) // n2
            a_re, a_im, b_re, b_im = (
                b_re,
                b_im,
                a_re - q_re * b_re + q_im * b_im,
                a_im - q_re * b_im - q_im * b_re,
            )
        if a_re * a_re + a_im * a_im == 1:
            return _GaussianInteger(1, 0)
    while (a_re <= 0 or a_im < 0) and (a_re or a_im):
        a_re, a_im = -a_im, a_re
    return _GaussianInteger(a_re, a_im)


def _divide_gaussian(row, p):
    n = p.re * p.re + p.im * p.im
    return {
        c: GaussianRational(rational(v.re * p.re + v.im * p.im, n), rational(v.im * p.re - v.re * p.im, n))
        for c, v in row.items()
    }


# The per-field pieces of the elimination: clear a row to integers (with the
# denominator it was multiplied by), the content (gcd) of integers, and the
# division of an integer row by one integer, back to field scalars.
_OVER_QQ = (_integer_row, gcd, _divide_rational)
_OVER_QQI = (_clear_gaussian, _gaussian_gcd, _divide_gaussian)


def _over(gaussian):
    return _OVER_QQI if gaussian else _OVER_QQ


def _has_gaussian(values):
    return GaussianRational in map(type, values)


def _integer_rref(rows, cols, field):
    """The integer core of rref_rows: [(pivot col, integer pivot row)] in pivot order.

    Each row is fully reduced (zero in every other pivot column) and has
    coprime entries; it is the RREF row times its pivot entry row[col].
    """
    clear, content, _ = field
    work = [_primitive(clear(r)[1], content) for r in rows]
    occupancy = {}
    for ridx, r in enumerate(work):
        for c in r:
            occupancy.setdefault(c, set()).add(ridx)
    outside = [c for c in occupancy if not 0 <= c < cols]
    if outside:
        raise ValueError(f"column {min(outside)} outside range({cols})")
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
        unit = p // content(p)
        if unit != 1:
            prow = work[pr] = {cc: v // unit for cc, v in prow.items()}
            p = prow[c]
        for r2 in list(occ):
            if r2 == pr:
                continue
            row2 = work[r2]
            f = row2[c]
            g = content(p, f)
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
                work[r2] = _primitive(row2, content)
        pivots.append((c, pr))
    return [(c, work[pr]) for c, pr in pivots]


def rref_rows(rows, cols):
    """Reduced row echelon form of a list of row dicts with columns in range(cols).

    Returns (pivot_cols, rref) where rref[k] is the row whose pivot is
    pivot_cols[k], scaled to pivot 1, fully reduced.  Input rows are not
    mutated; a nonzero entry in a column outside range(cols) raises
    ValueError.  The result is the canonical RREF of the row space; its entries
    are rationals, or GaussianRational when any input entry is one.

    The elimination runs on integers (Gaussian integers over QQ(i)).  Each row
    is cleared to coprime integers.  A pivot row is scaled by a unit so that
    its pivot p is positive (over ZZ[i]: re > 0, im >= 0).  Every other row r
    with entry f in the pivot column becomes (p/g) r - (f/g) pivot_row, with
    g = gcd(p, f), and is then divided by its content.  The pivot rows are
    divided by their pivots only when the output is built.
    """
    field = _over(_has_gaussian(v for r in rows for v in r.values()))
    pivots = _integer_rref(rows, cols, field)
    divide = field[2]
    return [c for c, _ in pivots], [divide(row, row[c]) for c, row in pivots]


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
    combination part together are coprime integers (Gaussian integers when a
    spanning entry is a GaussianRational) whose pivot entry is p, the RREF row
    times p.  A query is cleared to integers once, reduced fraction-free and
    divided once at the end, so that its values are those of reducing over
    the field against the RREF.
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
        # pivot column -> (pivot entry p, the integer row restricted to the
        # ambient space, its combination part)
        self.pivots = {}
        for c, row in _integer_rref(rows, dim + len(rows), _over(self._gaussian)):
            if c < dim:
                self.pivots[c] = (
                    row[c],
                    {cc: v for cc, v in row.items() if cc < dim},
                    {cc - dim: v for cc, v in row.items() if cc >= dim},
                )
        self.rank = len(self.pivots)
        self._gaussian_pivots = None

    def _pivots_over(self, gaussian):
        """The pivot rows with entries of the query's field.

        A span over QQ queried with a GaussianRational has its integer rows
        converted to Gaussian integers on the first such query.
        """
        if not gaussian or self._gaussian:
            return self.pivots
        if self._gaussian_pivots is None:
            G = _GaussianInteger
            self._gaussian_pivots = {
                c: (G(p, 0), {cc: G(v, 0) for cc, v in row.items()}, {j: G(v, 0) for j, v in combo.items()})
                for c, (p, row, combo) in self.pivots.items()
            }
        return self._gaussian_pivots

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
        vec is cleared to integers t = den * vec.  For a pivot row with pivot p
        and t's entry f there, g = gcd(p, f), t becomes (p/g) t - (f/g) row,
        the combination q becomes (p/g) q + (f/g) row_combination, and den is
        multiplied by p/g, so that t / den is always vec minus the combination
        of the RREF rows used so far and q / den that combination.  Over QQ(i)
        p/g may be a Gaussian integer; a den that is not a positive int is
        made one at the end by multiplying den, t and q by its conjugate.
        """
        gaussian = self._gaussian or _has_gaussian(vec.values())
        clear, content, _ = _over(gaussian)
        pivots = self._pivots_over(gaussian)
        den, t = clear(vec)
        combo = {}
        for c in [c for c in t if c in pivots]:
            p, row, row_combo = pivots[c]
            f = t[c]
            g = content(p, f)
            a, fg = p // g, f // g
            if a != 1:
                den = den * a
                t = {cc: a * v for cc, v in t.items()}
                combo = {j: a * v for j, v in combo.items()}
            _add_multiple(t, -fg, row)
            if want_combo:
                _add_multiple(combo, fg, row_combo)
        if gaussian:
            den, t, combo = _gaussian_out(den, t, combo)
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
        # the parts are integral: their numerators are the Gaussian integer's parts
        return {
            j: GaussianRational(rational(v.re.numerator, den), rational(v.im.numerator, den))
            for j, v in combo.items()
        }


def _gaussian_out(den, t, combo):
    """(den, t, q) of Gaussian integers as a positive int and GaussianRationals.

    A den that is not a positive integer (one with an imaginary part, or a
    negative one such as i * i) is replaced by its norm, t and q being
    multiplied by its conjugate, so that t / den and q / den keep their values.
    """
    if den.im or den.re < 0:
        conj = _GaussianInteger(den.re, -den.im)
        t = {c: v * conj for c, v in t.items()}
        combo = {j: v * conj for j, v in combo.items()}
        den = den * conj
    G = GaussianRational
    return den.re, {c: G(v.re, v.im) for c, v in t.items()}, {j: G(v.re, v.im) for j, v in combo.items()}


def primitive_integer_vector(vec):
    """Scale a list of rational scalars to coprime integers with positive leading entry.

    Gaussian entries are scaled jointly (treating re and im as components);
    the returned list then contains Gaussian integers.
    """
    ints = _primitive(_integer_row(_real_parts(enumerate(vec)))[1], gcd)
    if ints and next(iter(ints.values())) < 0:
        ints = {key: -x for key, x in ints.items()}
    out = []
    for k in range(len(vec)):
        re, im = int(ints.get((k, 0), 0)), int(ints.get((k, 1), 0))
        out.append(GaussianRational(re, im) if im else re)
    return out
