import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from superalg import linalg
from superalg.linalg import (
    SparseMatrix,
    SpanSolver,
    kernel_basis,
    primitive_integer_vector,
    rank,
    rref_rows,
)
from superalg.scalars import FIELD_Q, FIELD_QI, ZERO, gaussian, rational

from oracles import dense_rank_fraction_free


def random_matrix(rng, rows, cols, field=FIELD_Q, density=0.6):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = field.random(rng)
                if v:
                    entries[(r, c)] = v
    return SparseMatrix(rows, cols, entries)


def test_rank_identity_and_zero():
    assert rank(SparseMatrix.identity(3)) == 3
    assert rank(SparseMatrix(4, 2, {})) == 0


def test_rank_duplicated_row_matches_oracle():
    rng = random.Random(3)
    m = random_matrix(rng, 4, 5, density=0.9)
    dense = m.to_dense()
    dense.append(list(dense[1]))  # duplicate a row
    mat = SparseMatrix.from_dense(dense)
    expected = dense_rank_fraction_free(dense)
    assert expected == 4
    assert rank(mat) == expected


def test_rank_matches_oracle_randomized():
    rng = random.Random(17)
    for trial in range(30):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        field = FIELD_QI if trial % 3 == 0 else FIELD_Q
        m = random_matrix(rng, rows, cols, field=field, density=0.5)
        assert rank(m) == dense_rank_fraction_free(m.to_dense())


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(4)) == []


def test_kernel_zero_matrix_full():
    ker = kernel_basis(SparseMatrix(2, 3, {}))
    assert len(ker) == 3


def test_kernel_one_row():
    # [[1, 1]] has kernel spanned by (1, -1)
    m = SparseMatrix.from_dense([[rational(1), rational(1)]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == -v[1] and v[0]


def test_rank_plus_nullity_and_exactness():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, rows, cols, density=0.45)
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == cols
        for v in ker:
            assert not any(m.mul_vector(v))  # exactly zero, no drift


def test_rref_insertion_order_independent():
    rng = random.Random(5)
    m = random_matrix(rng, 6, 6, density=0.7)
    rows = m.row_dicts()
    shuffled = [dict(sorted(r.items(), reverse=True)) for r in rows]
    assert rref_rows(rows, 6) == rref_rows(shuffled, 6)


def test_rref_dense_sparse_agree():
    rng = random.Random(29)
    for _ in range(10):
        m = random_matrix(rng, 9, 9, density=0.4)
        from superalg import linalg

        dense = linalg._rref_dense(m.row_dicts(), 9)
        sparse = linalg._rref_sparse(m.row_dicts(), 9)
        assert dense == sparse


def test_span_solver_roundtrip():
    rng = random.Random(59)
    vecs = [[FIELD_Q.random(rng) for _ in range(6)] for _ in range(4)]
    solver = SpanSolver(vecs, 6)
    coeffs = [rational(2), rational(-1, 3), rational(0), rational(5)]
    target = [sum((c * v[i] for c, v in zip(coeffs, vecs)), rational(0)) for i in range(6)]
    sol = solver.solve(target)
    assert sol is not None
    rebuilt = [sum((c * v[i] for c, v in zip(sol, vecs)), rational(0)) for i in range(6)]
    assert rebuilt == target
    assert solver.solve([rational(1)] + [rational(0)] * 5) is None or solver.rank == 6


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
def test_sparsest_row_pivots_give_the_dense_rref_and_the_oracle_rank(case):
    rows, cols = case
    sparse = linalg._rref_sparse(rows, cols)
    assert sparse == linalg._rref_dense(rows, cols)
    dense = [[r.get(c, ZERO) for c in range(cols)] for r in rows]
    assert len(sparse[0]) == dense_rank_fraction_free(dense)


def test_sparsest_row_pivot_breaks_ties_by_lowest_index():
    # rows 1 and 2 both have one nonzero in column 0, row 0 has two
    one = rational(1)
    rows = [{0: one, 1: one}, {0: rational(2)}, {0: rational(3)}]
    pivots, rref = linalg._rref_sparse(rows, 2)
    assert pivots == [0, 1]
    assert rref == [{0: one}, {1: one}]
    assert linalg._rref_dense(rows, 2) == (pivots, rref)


def _as_dict(vec):
    return {i: v for i, v in enumerate(vec) if v}


def test_span_solver_dict_and_list_inputs_agree():
    rng = random.Random(71)
    for trial in range(40):
        dim = rng.randint(1, 7)
        field = FIELD_QI if trial % 4 == 0 else FIELD_Q
        vecs = [
            [field.random(rng) if rng.random() < 0.4 else ZERO for _ in range(dim)]
            for _ in range(rng.randint(0, 4))
        ]
        # mixed input forms for the spanning set too
        solver = SpanSolver([_as_dict(v) if k % 2 else v for k, v in enumerate(vecs)], dim)
        queries = [[field.random(rng) if rng.random() < 0.5 else ZERO for _ in range(dim)] for _ in range(3)]
        for coeffs in ([field.random(rng) for _ in vecs] for _ in range(2)):
            queries.append([sum((c * v[i] for c, v in zip(coeffs, vecs)), ZERO) for i in range(dim)])
        for q in queries:
            as_list = solver.reduce(q)
            as_dict = solver.reduce(_as_dict(q))
            assert isinstance(as_list, list) and len(as_list) == dim
            assert isinstance(as_dict, dict) and all(as_dict.values())
            assert as_dict == _as_dict(as_list)
            res_l, combo_l = solver.reduce(q, want_combo=True)
            res_d, combo_d = solver.reduce(_as_dict(q), want_combo=True)
            assert res_l == as_list and res_d == as_dict and combo_l == combo_d
            assert solver.solve(q) == solver.solve(_as_dict(q))
            assert solver.contains(q) == solver.contains(_as_dict(q)) == (not as_dict)
            assert (solver.solve(q) is None) == (not solver.contains(q))


def test_span_solver_residual_at_index_zero_is_not_zero():
    # the residual {0: 1} has only the falsy key 0: any() over the dict is False
    one = rational(1)
    solver = SpanSolver([{1: one}], 2)
    assert solver.reduce({0: one}) == {0: one}
    assert solver.reduce([one, ZERO]) == [one, ZERO]
    assert not solver.contains({0: one}) and not solver.contains([one, ZERO])
    assert solver.solve({0: one}) is None and solver.solve([one, ZERO]) is None
    assert solver.solve({0: ZERO, 1: rational(3)}) == [rational(3)]
