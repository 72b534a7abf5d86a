import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from recipe_nutrients.kernels import REPEAT_ROWS, from_dense


def random_sparse(rng, rows, cols, density=0.2, empty_rows=()):
    dense = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    for row in empty_rows:
        dense[row] = 0.0
    return dense


@pytest.mark.parametrize("shape,empty_rows", [
    ((7, 5), ()),
    ((10, 12), (0, 4, 9)),
    ((1, 3), ()),
    ((5, 1), (2,)),
])
def test_matvec_matches_dense(shape, empty_rows):
    rng = np.random.default_rng(1)
    dense = random_sparse(rng, *shape, empty_rows=empty_rows)
    x = rng.normal(size=shape[1])
    assert np.allclose(from_dense(dense).matvec(x), dense @ x)


@pytest.mark.parametrize("shape,empty_rows", [
    ((7, 5), ()),
    ((10, 12), (0, 4, 9)),
    ((3, 8), ()),
])
def test_rmatvec_matches_dense(shape, empty_rows):
    rng = np.random.default_rng(2)
    dense = random_sparse(rng, *shape, empty_rows=empty_rows)
    y = rng.normal(size=shape[0])
    assert np.allclose(from_dense(dense).rmatvec(y), dense.T @ y)


@st.composite
def sparse_problems(draw):
    """A dense matrix with whole rows emptied at random, and vectors for both products."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    value = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    dense = draw(hnp.arrays(np.float64, (rows, cols), elements=value))
    dense[~draw(hnp.arrays(np.bool_, (rows, cols)))] = 0.0
    dense[draw(hnp.arrays(np.bool_, rows))] = 0.0
    x = draw(hnp.arrays(np.float64, cols, elements=value))
    y = draw(hnp.arrays(np.float64, rows, elements=value))
    return dense, x, y


def _problem(dense):
    dense = np.asarray(dense, dtype=np.float64)
    return dense, np.arange(1.0, dense.shape[1] + 1), np.arange(1.0, dense.shape[0] + 1)


@given(sparse_problems())
@example(_problem(np.zeros((4, 3))))  # nnz = 0
@example(_problem([[0, 0], [1, 2], [3, 0]]))  # empty first row
@example(_problem([[1, 0], [0, 0], [0, 0], [0, 4]]))  # empty middle rows
@example(_problem([[1, 2], [0, 3], [0, 0]]))  # empty last row
@example(_problem([[0, 5, 0, 6]]))  # 1 x k
@example(_problem([[0], [2], [0], [7]]))  # k x 1
def test_products_match_dense_toarray(problem):
    dense, x, y = problem
    matrix = from_dense(dense)
    assert np.array_equal(matrix.toarray(), dense)
    # at most 9 terms of size <= 1e4 each: float64 rounding stays far below 1e-9
    np.testing.assert_allclose(matrix.matvec(x), matrix.toarray() @ x, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(matrix.rmatvec(y), matrix.toarray().T @ y, rtol=1e-12, atol=1e-9)
    assert matrix.matvec(x).dtype == matrix.rmatvec(y).dtype == np.float64
    assert_work_gives_same_bits(matrix, x, y)


def assert_work_gives_same_bits(matrix, x, y):
    """With or without a work buffer, whatever it holds on entry, both products
    give the bits of the plain numpy expressions summed in the same order."""
    starts = matrix.indptr[:-1]
    nonempty = starts < matrix.indptr[1:]
    plain_matvec = np.zeros(matrix.shape[0])
    plain_matvec[nonempty] = np.add.reduceat(matrix.data * x[matrix.indices], starts[nonempty])
    plain_rmatvec = np.bincount(matrix.indices,
                                weights=matrix.data * np.repeat(y, np.diff(matrix.indptr)),
                                minlength=matrix.shape[1])
    work = np.full(matrix.nnz, np.nan)
    assert np.array_equal(matrix.matvec(x, work), plain_matvec)
    assert np.array_equal(matrix.matvec(x), plain_matvec)
    work.fill(np.nan)
    assert np.array_equal(matrix.rmatvec(y, work), plain_rmatvec)
    assert np.array_equal(matrix.rmatvec(y), plain_rmatvec)


def test_work_spans_repeat_blocks():
    # more rows than one repeat block, empty rows, and a row with more
    # entries than a block has rows
    rng = np.random.default_rng(5)
    rows = 2 * REPEAT_ROWS + 7
    dense = random_sparse(rng, rows, 3 * REPEAT_ROWS, density=0.05,
                          empty_rows=(0, REPEAT_ROWS - 1, REPEAT_ROWS, rows - 1))
    dense[REPEAT_ROWS + 3] = rng.random(3 * REPEAT_ROWS) + 0.5
    matrix = from_dense(dense)
    x = rng.normal(size=dense.shape[1])
    y = rng.normal(size=rows)
    assert_work_gives_same_bits(matrix, x, y)
    np.testing.assert_allclose(matrix.rmatvec(y, np.empty(matrix.nnz)), dense.T @ y,
                               rtol=1e-12, atol=1e-9)


def test_from_dense_round_trip():
    rng = np.random.default_rng(4)
    dense = random_sparse(rng, 6, 9, empty_rows=(1,))
    assert np.array_equal(from_dense(dense).toarray(), dense)
