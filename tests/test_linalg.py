import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superalg.linalg import (
    SpanSolver,
    SparseMatrix,
    kernel_basis,
    primitive_integer_vector,
    rank,
    rref_rows,
)
from superalg.scalars import FIELD_Q, FIELD_QI, ONE, ZERO, GaussianRational, gaussian, rational

from oracles import dense_rank_fraction_free, dense_reduce, dense_rref


def random_rows(rng, rows, cols, field=FIELD_Q, density=0.6):
    """Row dicts of a random rows x cols matrix."""
    out = []
    for _ in range(rows):
        row = {}
        for c in range(cols):
            if rng.random() < density:
                v = field.random(rng)
                if v:
                    row[c] = v
        out.append(row)
    return out


def identity(n):
    return [{k: rational(1)} for k in range(n)]


def to_dense(rows, cols):
    return [[r.get(c, ZERO) for c in range(cols)] for r in rows]


def apply(rows, vec):
    """The matrix given by its row dicts applied to a dict vector, as a dense list."""
    return [sum((v * vec[c] for c, v in r.items() if c in vec), ZERO) for r in rows]


def combination(coeffs, vecs):
    """sum_j coeffs[j] * vecs[j] as a dict of nonzeros."""
    out = {}
    for j, c in coeffs.items():
        for i, v in vecs[j].items():
            out[i] = out.get(i, ZERO) + c * v
    return {i: v for i, v in out.items() if v}


def test_rank_identity_and_zero():
    assert rank(identity(3), 3) == 3
    assert rank([{}] * 4, 2) == 0


def test_rank_duplicated_row_matches_oracle():
    rng = random.Random(3)
    rows = random_rows(rng, 4, 5, density=0.9)
    rows.append(dict(rows[1]))  # duplicate a row
    expected = dense_rank_fraction_free(to_dense(rows, 5))
    assert expected == 4
    assert rank(rows, 5) == expected


def test_rank_matches_oracle_randomized():
    rng = random.Random(17)
    for trial in range(30):
        nrows, cols = rng.randint(1, 7), rng.randint(1, 7)
        field = FIELD_QI if trial % 3 == 0 else FIELD_Q
        rows = random_rows(rng, nrows, cols, field=field, density=0.5)
        assert rank(rows, cols) == dense_rank_fraction_free(to_dense(rows, cols))


def test_oracles_are_exact_on_large_integers():
    # determinant -1, so the rows are independent; true division on ints rounds
    # to floats and loses the last digit, which made the old oracle report rank 1
    big = 10**17
    dense = [[big + 1, big], [big, big - 1]]
    rows = [dict(enumerate(r)) for r in dense]
    assert dense_rank_fraction_free(dense) == 2
    assert dense_rref(rows, 2) == ([0, 1], [{0: ONE}, {1: ONE}])
    assert rank(rows, 2) == 2


def test_kernel_identity_empty():
    assert kernel_basis(identity(4), 4) == []


def test_kernel_zero_matrix_full():
    ker = kernel_basis([{}, {}], 3)
    assert ker == [{0: rational(1)}, {1: rational(1)}, {2: rational(1)}]


def test_kernel_one_row():
    # [[1, 1]] has kernel spanned by (1, -1)
    ker = kernel_basis([{0: rational(1), 1: rational(1)}], 2)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == -v[1] and v[0]


def test_rank_plus_nullity_and_exactness():
    rng = random.Random(23)
    for _ in range(20):
        nrows, cols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, cols, density=0.45)
        ker = kernel_basis(rows, cols)
        assert rank(rows, cols) + len(ker) == cols
        for v in ker:
            assert all(x for x in v.values()) and all(0 <= c < cols for c in v)
            assert not any(apply(rows, v))  # exactly zero, no drift


def test_rref_insertion_order_independent():
    rng = random.Random(5)
    rows = random_rows(rng, 6, 6, density=0.7)
    shuffled = [dict(sorted(r.items(), reverse=True)) for r in rows]
    assert rref_rows(rows, 6) == rref_rows(shuffled, 6)


def test_rref_dense_sparse_agree():
    rng = random.Random(29)
    for _ in range(10):
        rows = random_rows(rng, 9, 9, density=0.4)
        before = [dict(r) for r in rows]
        assert rref_rows(rows, 9) == dense_rref(rows, 9)
        assert rows == before  # the input rows are not mutated


def test_span_solver_roundtrip():
    rng = random.Random(59)
    vecs = [{i: x for i in range(6) if (x := FIELD_Q.random(rng))} for _ in range(4)]
    solver = SpanSolver(vecs, 6)
    coeffs = {0: rational(2), 1: rational(-1, 3), 3: rational(5)}
    target = combination(coeffs, vecs)
    sol = solver.solve(target)
    assert sol is not None
    assert combination(sol, vecs) == target
    assert solver.solve({0: rational(1)}) is None or solver.rank == 6


def test_primitive_integer_vector():
    v = [rational(-2, 3), rational(4, 9), rational(0)]
    assert primitive_integer_vector(v) == [3, -2, 0]
    assert primitive_integer_vector([rational(0)] * 3) == [0, 0, 0]


# -- sparsest-row pivots and dict vectors ------------------------------------

RATIONALS = st.builds(rational, st.integers(-6, 6), st.integers(1, 5))
SCALARS = {
    "Q": RATIONALS,
    "Q(i)": st.builds(gaussian, RATIONALS, RATIONALS),
}


@st.composite
def tall_sparse_rows(draw):
    """Row dicts of a tall, very sparse matrix: about one nonzero per row."""
    field = draw(st.sampled_from(sorted(SCALARS)))
    cols = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, 30))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, cols - 1), SCALARS[field]),
            max_size=nrows + 4,
        )
    )
    rows = [{} for _ in range(nrows)]
    for r, c, v in cells:
        if v:
            rows[r][c] = v
        else:
            rows[r].pop(c, None)
    return rows, cols


@settings(max_examples=300, deadline=None)
@given(tall_sparse_rows())
@example(([{}], 1))
@example(([{0: rational(3)}], 1))
@example(([{}, {}, {1: rational(2)}, {}], 3))
# a row and i times it: rank 1 over QQ(i), kernel dimension 1
@example(([{0: gaussian(1, 2), 1: rational(3)}, {0: gaussian(-2, 1), 1: gaussian(0, 3)}], 2))
def test_sparsest_row_pivots_give_the_dense_rref_and_the_oracle_rank(case):
    rows, cols = case
    sparse = rref_rows(rows, cols)
    assert sparse == dense_rref(rows, cols)
    assert len(sparse[0]) == dense_rank_fraction_free(to_dense(rows, cols))
    ker = kernel_basis(rows, cols)
    assert len(ker) + len(sparse[0]) == cols
    for v in ker:
        assert not any(apply(rows, v))


def test_sparsest_row_pivot_breaks_ties_by_lowest_index():
    # rows 1 and 2 both have one nonzero in column 0, row 0 has two
    one = rational(1)
    rows = [{0: one, 1: one}, {0: rational(2)}, {0: rational(3)}]
    pivots, rref = rref_rows(rows, 2)
    assert pivots == [0, 1]
    assert rref == [{0: one}, {1: one}]
    assert dense_rref(rows, 2) == (pivots, rref)


def test_span_solver_dict_queries_agree():
    rng = random.Random(71)
    for trial in range(40):
        dim = rng.randint(1, 7)
        field = FIELD_QI if trial % 4 == 0 else FIELD_Q
        vecs = [
            {i: field.random(rng) for i in range(dim) if rng.random() < 0.4}
            for _ in range(rng.randint(0, 4))
        ]
        solver = SpanSolver(vecs, dim)
        queries = [{i: field.random(rng) for i in range(dim) if rng.random() < 0.5} for _ in range(3)]
        for _ in range(2):
            queries.append(combination({j: field.random(rng) for j in range(len(vecs))}, vecs))
        for q in queries:
            den, t, qc = solver.reduce(q, want_combo=True)
            assert solver.reduce(q) == (den, t)
            assert type(den) is int and den > 0
            assert isinstance(t, dict) and all(t.values())
            inv = rational(1, den)
            residual = {i: v * inv for i, v in t.items()}
            combo = {j: v * inv for j, v in qc.items()}
            # q = residual + the combination of the spanning vectors
            assert combination({0: rational(1), 1: rational(1)}, [residual, combination(combo, vecs)]) == {
                i: v for i, v in q.items() if v
            }
            assert solver.contains(q) == (not residual)
            assert (solver.solve(q) is None) == (not solver.contains(q))
            if residual:
                assert solver.solve(q) is None
            else:
                assert solver.solve(q) == combo


def test_span_solver_residual_at_index_zero_is_not_zero():
    # the residual {0: 1} has only the falsy key 0: any() over the dict is False
    one = rational(1)
    solver = SpanSolver([{1: one}], 2)
    assert solver.reduce({0: one}) == (1, {0: 1})
    assert not solver.contains({0: one})
    assert solver.solve({0: one}) is None
    assert solver.solve({0: ZERO, 1: rational(3)}) == {0: rational(3)}


def test_span_solver_rejects_an_index_outside_the_ambient_space():
    one = rational(1)
    # index 2 in dim 2 would land on the combination column of vector 0
    for vecs in ([{2: one}], [{0: one}, {1: one, 3: one}], [{-1: one}]):
        with pytest.raises(ValueError, match="outside range"):
            SpanSolver(vecs, 2)
    # an explicit zero is not an index of the vector
    solver = SpanSolver([{0: one, 5: ZERO}], 2)
    assert solver.rank == 1 and solver.contains({0: rational(4)})
    assert SpanSolver([{1: one}], 2).contains({1: one})


# -- the integer elimination: denominators, content and cross-multiplication ---

WIDE = st.builds(rational, st.integers(-(2**20), 2**20), st.integers(1, 2**20))
WIDE_INTS = st.integers(-(2**20), 2**20)
WIDE_SCALARS = {
    "Q": WIDE,
    "Q(i)": st.one_of(WIDE, st.builds(gaussian, WIDE, WIDE)),
    # plain ints, as the cleared differential_matrix rows are, alone and
    # mixed with rationals
    "Z": WIDE_INTS,
    "Z and Q": st.one_of(WIDE_INTS, WIDE),
}


def as_fractions(vec):
    """vec with every plain int made the backend's rational."""
    return {c: rational(v) if type(v) is int else v for c, v in vec.items()}


@st.composite
def dense_wide_rows(draw):
    """Row dicts of a fairly dense matrix, up to 10 x 12, with 20-bit numerators and denominators.

    Some rows are combinations of earlier ones, so that updates cancel entries
    and leave rows with a common factor for the content step to divide out.
    """
    field = draw(st.sampled_from(sorted(WIDE_SCALARS)))
    cols = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(WIDE_SCALARS[field]), draw(WIDE_SCALARS[field])
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
        else:
            row = draw(st.dictionaries(st.integers(0, cols - 1), WIDE_SCALARS[field], min_size=cols // 2))
        rows.append({c: v for c, v in sorted(row.items()) if v})
    return rows, cols


@settings(max_examples=200, deadline=None)
@given(dense_wide_rows())
@example(([{0: rational(6), 1: rational(4)}, {0: rational(9), 1: rational(6)}], 2))
@example(([{0: gaussian(2, 2), 1: gaussian(0, 4)}, {0: gaussian(3, 1), 1: gaussian(1, 3)}], 2))
@example(([{0: gaussian(1, 1), 1: rational(2)}, {0: rational(5, 7), 1: gaussian(0, -3)}], 3))
def test_integer_elimination_gives_the_dense_rref_with_field_scalars(case):
    rows, cols = case
    before = repr(rows)
    pivots, rref = rref_rows(rows, cols)
    assert (pivots, rref) == dense_rref(rows, cols)
    # ints and the same values as rationals give the same RREF and kernel
    fractions = [as_fractions(r) for r in rows]
    assert rref_rows(fractions, cols) == (pivots, rref)
    assert kernel_basis(rows, cols) == kernel_basis(fractions, cols)
    assert repr(rows) == before  # the input rows are not mutated, nor their values retyped
    if any(isinstance(v, GaussianRational) for r in rows for v in r.values()):
        assert all(type(v) is GaussianRational for r in rref for v in r.values())
    else:
        assert all(type(v) is type(ONE) for r in rref for v in r.values())


# -- the integer SpanSolver against the dense reduction --------------------------


def _nonzero(vec):
    return {c: v for c, v in vec.items() if v}


@st.composite
def span_queries(draw):
    """A spanning set of up to 5 vectors in dim 1..7 over QQ or QQ(i), and queries.

    Some spanning vectors are combinations of earlier ones; the queries are a
    free vector, a vector of ints and a combination of the spanning vectors.
    Over QQ(i) each scalar may be rational or Gaussian, so rational spans meet
    Gaussian queries and the other way round.
    """
    field = draw(st.sampled_from(sorted(WIDE_SCALARS)))
    scalars = WIDE_SCALARS[field]
    dim = draw(st.integers(1, 7))
    vecs = []
    for _ in range(draw(st.integers(0, 5))):
        if vecs and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            vecs.append(combination({0: draw(scalars), 1: draw(scalars)}, [a, b]))
        else:
            vecs.append(_nonzero(draw(st.dictionaries(st.integers(0, dim - 1), scalars))))
    queries = [
        _nonzero(draw(st.dictionaries(st.integers(0, dim - 1), scalars))),
        _nonzero(draw(st.dictionaries(st.integers(0, dim - 1), st.integers(-(2**40), 2**40)))),
        combination({j: draw(scalars) for j in range(len(vecs))}, vecs),
    ]
    return vecs, dim, queries


@settings(max_examples=200, deadline=None)
@given(span_queries())
@example(([], 3, [{0: rational(2)}, {2: 5}, {}]))
@example(([{1: rational(1, 3)}], 2, [{0: rational(1)}, {0: 4, 1: 6}]))
@example(([{0: rational(2), 1: rational(3)}, {0: rational(4), 1: rational(6)}], 2, [{0: 5, 1: 7}, {1: 9}]))
@example(([{0: rational(1, 2), 1: rational(3)}], 2, [{0: gaussian(1, 2), 1: rational(5)}, {0: gaussian(0, 1)}]))
@example(([{0: gaussian(2, 2), 1: gaussian(0, 4)}, {0: gaussian(3, 1)}], 2, [{0: rational(3), 1: 2}]))
# two steps scale den by i, so it ends as -1: the cleared den must still come back positive
@example((
    [{1: rational(1, 2)}, {}, {1: gaussian(rational(-1, 2), rational(3, 2))}, {0: ONE, 1: gaussian(0, 1)}, {1: ONE}],
    3,
    [{1: gaussian(0, 1), 0: ONE}],
))
# a Gaussian span queried with rational vectors; its pivot row has the non-real pivot 1 + i
@example(([{0: gaussian(1, 1), 1: ONE}], 2, [{0: rational(1, 2)}, {0: 3, 1: rational(2, 5)}]))
# a rational span queried with Gaussian vectors whose imaginary parts meet its pivots
@example((
    [{0: rational(2), 1: rational(1, 3)}, {1: ONE, 2: rational(5)}],
    3,
    [{0: gaussian(1, 1), 1: gaussian(0, 2)}, {0: gaussian(0, 3), 2: gaussian(1, -1)}],
))
# v and i*v span one complex dimension: rank counts it once
@example((
    [{0: gaussian(1, 2), 1: ONE}, {0: gaussian(-2, 1), 1: gaussian(0, 1)}],
    2,
    [{0: ONE}, {0: gaussian(1, 2), 1: rational(5)}, {0: gaussian(3, 1), 1: gaussian(1, -1)}],
))
def test_integer_span_solver_agrees_with_the_dense_reduction(case):
    vecs, dim, queries = case
    before = repr(case)
    solver = SpanSolver(vecs, dim)
    fraction_solver = SpanSolver([as_fractions(v) for v in vecs], dim)
    pivot_cols = dense_rref(vecs, dim)[0]
    assert solver.pivot_columns == set(pivot_cols)
    assert solver.rank == len(pivot_cols)
    # a query with no entry in any pivot column is its own residual
    queries = queries + [{c: v for c, v in q.items() if c not in pivot_cols} for q in queries]
    field_type = type(ONE)
    if any(isinstance(v, GaussianRational) for vec in vecs for v in vec.values()):
        field_type = GaussianRational
    for q in queries:
        residual, combo = dense_reduce(vecs, dim, q)
        den, t, qc = solver.reduce(q, want_combo=True)
        assert solver.reduce(q) == (den, t)
        assert fraction_solver.reduce(as_fractions(q), want_combo=True) == (den, t, qc)
        # the cleared residual and combination are den times the dense ones
        assert type(den) is int and den > 0
        assert t == {c: v * den for c, v in residual.items()}
        assert qc == {j: v * den for j, v in combo.items()}
        assert solver.contains(q) == (not residual)
        sol = solver.solve(q)
        assert sol == (None if residual else combo)
        want = GaussianRational if any(isinstance(v, GaussianRational) for v in q.values()) else field_type
        if want is GaussianRational:
            # Gaussian integers: GaussianRationals with integral parts
            assert all(
                type(v) is GaussianRational and v.re.denominator == v.im.denominator == 1
                for part in (t, qc)
                for v in part.values()
            )
        else:
            assert all(type(v) is int for part in (t, qc) for v in part.values())
        assert all(type(v) is want for v in (sol or {}).values())
    assert repr(case) == before  # neither the spanning vectors nor the queries are mutated


def test_rref_rows_rejects_a_column_outside_the_range():
    one, z = rational(1), gaussian(1, 1)
    # a column past cols used to be dropped: the row vanished and the kernel kept both units;
    # Gaussian rows name the caller's column, not a column of their realification
    for rows, col in (
        ([{3: one}], 3),
        ([{0: one}, {1: one, 2: 5}], 2),
        ([{-1: one}], -1),
        ([{5: z}], 5),
        ([{0: z}, {1: one, 2: gaussian(0, 2)}], 2),
        ([{-1: z}], -1),
    ):
        with pytest.raises(ValueError, match=rf"column {col} outside range\(2\)"):
            rref_rows(rows, 2)
        with pytest.raises(ValueError, match=rf"column {col} outside range\(2\)"):
            kernel_basis(rows, 2)
    # an explicit zero names no column
    assert rref_rows([{0: one, 7: ZERO}], 2) == ([0], [{0: one}])
    assert rref_rows([{0: z, 7: gaussian(0, 0)}], 2) == ([0], [{0: gaussian(1)}])


def test_a_scalar_that_is_not_exact_raises_a_type_error_naming_it():
    # a float used to fail deep in the stack: AttributeError on .denominator over QQ,
    # and a TypeError from fractions that named no value over QQ(i)
    one, z = rational(1), gaussian(1, 1)
    match = r"0\.5 is not an exact scalar"
    for rows in ([{0: 0.5}], [{0: one, 1: 0.5}], [{0: z, 1: 0.5}], [{0: 0.5}, {1: z}]):
        with pytest.raises(TypeError, match=match):
            rref_rows(rows, 2)
        with pytest.raises(TypeError, match=match):
            kernel_basis(rows, 2)
        with pytest.raises(TypeError, match=match):
            SpanSolver(rows, 2)
    for solver in (SpanSolver([{0: one}], 2), SpanSolver([{0: z}], 2)):
        for query in ({1: 0.5}, {0: one, 1: 0.5}, {0: z, 1: 0.5}):
            with pytest.raises(TypeError, match=match):
                solver.reduce(query)


def test_sparse_matrix_rejects_an_entry_outside_its_shape():
    assert SparseMatrix(2, 3, {(1, 2): ONE, (0, 0): ZERO}).entries == {(1, 2): ONE}
    for r, c in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError, match=rf"^entry \({r},{c}\) out of range for 2x3$"):
            SparseMatrix(2, 3, {(r, c): ONE})
