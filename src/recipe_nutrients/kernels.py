"""Compressed sparse row (CSR) matrix and its two products, in numpy.

The ridge solver spends essentially all of its time in ``CsrMatrix.matvec``
(``X z``) and ``CsrMatrix.rmatvec`` (``X.T u``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CsrMatrix:
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x: a segmented sum of data * x[indices] over each row."""
        out = np.zeros(self.shape[0], dtype=np.float64)
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        # reduceat sums from each start to the next, so empty rows (whose start
        # repeats the next row's, or is out of range at the end) are left out
        # and keep their zero
        out[nonempty] = np.add.reduceat(self.data * x[self.indices], starts[nonempty])
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """z = A.T @ y, scattered with bincount."""
        weights = self.data * np.repeat(y, np.diff(self.indptr))
        # bincount of nothing is int64 even with weights; keep float64 for nnz = 0
        return np.bincount(self.indices, weights=weights,
                           minlength=self.shape[1]).astype(np.float64, copy=False)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for i in range(self.shape[0]):
            start, stop = self.indptr[i], self.indptr[i + 1]
            dense[i, self.indices[start:stop]] = self.data[start:stop]
        return dense


def from_dense(matrix: np.ndarray) -> CsrMatrix:
    """CSR view of a dense matrix (test and benchmark convenience)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = np.nonzero(matrix)
    indptr = np.zeros(matrix.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    return CsrMatrix(data=matrix[rows, cols], indices=cols.astype(np.int64),
                     indptr=indptr, shape=matrix.shape)
