"""Compressed sparse row (CSR) matrix and its two products, in numpy.

The ridge solver spends essentially all of its time in ``CsrMatrix.matvec``
(``X z``) and ``CsrMatrix.rmatvec`` (``X.T u``). Both take an optional
``work`` array, nnz float64 long, that holds the per-entry products in place
of a fresh nnz-sized temporary. The solver runs the targets' solves on
threads and gives each thread one such buffer for its whole solve, so the
threads' temporaries do not pile up in their own malloc arenas. The results
are the same bits with or without ``work``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rmatvec fills ``work`` this many rows at a time, because np.repeat has no
# ``out=``; the block's temporary stays small next to the nnz-long buffer, and
# the multiply by the block's data reads it while it is still in cache
REPEAT_ROWS = 128


@dataclass
class CsrMatrix:
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def matvec(self, x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x: a segmented sum of data * x[indices] over each row.

        ``work``, if given, is an nnz-long float64 array that receives the
        products; its contents on entry do not matter.
        """
        out = np.zeros(self.shape[0], dtype=np.float64)
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        # the default mode="raise" gathers into a temporary and copies it to
        # out; "clip" writes out directly, and the indices are in range
        products = np.take(x, self.indices, out=work, mode="clip")
        products *= self.data
        # reduceat sums from each start to the next, so empty rows (whose start
        # repeats the next row's, or is out of range at the end) are left out
        # and keep their zero
        out[nonempty] = np.add.reduceat(products, starts[nonempty])
        return out

    def rmatvec(self, y: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """z = A.T @ y, scattered with bincount; ``work`` as in :meth:`matvec`."""
        if work is None:
            work = np.empty(self.nnz, dtype=np.float64)
        counts = np.diff(self.indptr)
        rows = self.shape[0]
        for start in range(0, rows, REPEAT_ROWS):
            stop = min(start + REPEAT_ROWS, rows)
            lo, hi = self.indptr[start], self.indptr[stop]
            np.multiply(np.repeat(y[start:stop], counts[start:stop]), self.data[lo:hi],
                        out=work[lo:hi])
        # bincount of nothing is int64 even with weights; keep float64 for nnz = 0
        return np.bincount(self.indices, weights=work,
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
