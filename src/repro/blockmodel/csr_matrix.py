"""Array-backed block matrix: the default storage backend.

:class:`CSRBlockMatrix` is built directly from the graph's CSR adjacency
(hence the name) but stores the block matrix as a dense ``(B, B)``
``int64`` array together with cached row and column sums, because the SBP
inner loops need random access to entries *and* O(1) marginals far more
often than they need sparsity.

On top of the scalar protocol API (``get`` / ``add`` / ``set`` / ``row`` /
``col`` / ``entries`` / ...) it serves the batched primitives the
vectorized evaluation kernels are built on:

``get_many(rows, cols)``
    Fancy-indexed gather of many entries at once.
``add_many(rows, cols, deltas)``
    Scatter-add of many deltas (duplicate positions accumulate), keeping
    the cached marginals in sync.
``row_array(i)`` / ``col_array(j)``
    Dense row/column views for cumulative-sum sampling.
``nonzero_arrays()``
    ``(i, j, value)`` arrays over the non-zero entries, row-major.

Memory is O(B²): the backend is intended for graphs up to a few tens of
thousands of vertices (``MAX_DENSE_BLOCKS``); beyond that
``SBPConfig(matrix_backend="sparse_csr")`` stores only the non-zeros.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.blockmodel.backend import BlockMatrixBackend

__all__ = ["CSRBlockMatrix", "MAX_DENSE_BLOCKS"]

#: Largest block count the dense backend will allocate (8 GiB of int64 at the
#: limit).  ``Blockmodel.from_graph`` starts with one block per vertex, so
#: this effectively caps the graph size the dense CSR backend accepts; the
#: ``"sparse_csr"`` backend stores only the non-zeros and has no such cap.
MAX_DENSE_BLOCKS = 32768


class CSRBlockMatrix(BlockMatrixBackend):
    """A square integer block matrix backed by a dense numpy array.

    Implements the :class:`BlockMatrixBackend` protocol (interchangeable
    with :class:`~repro.blockmodel.sparse_csr_matrix.SparseCSRBlockMatrix`
    inside :class:`~repro.blockmodel.blockmodel.Blockmodel`) plus the dense
    ``row_array`` / ``col_array`` views.  Row and column sums are
    maintained incrementally so marginals are O(1).
    """

    backend = "csr"

    __slots__ = ("num_blocks", "data", "_row_sums", "_col_sums")

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        if num_blocks > MAX_DENSE_BLOCKS:
            raise ValueError(
                f"the 'csr' backend allocates a dense {num_blocks}x{num_blocks} matrix; "
                f"the limit is {MAX_DENSE_BLOCKS} blocks — for larger graphs use matrix_backend "
                "'sparse_csr' (the same vectorized kernels without the dense memory bound)"
            )
        self.num_blocks = int(num_blocks)
        self.data = np.zeros((num_blocks, num_blocks), dtype=np.int64)
        self._row_sums = np.zeros(num_blocks, dtype=np.int64)
        self._col_sums = np.zeros(num_blocks, dtype=np.int64)

    @classmethod
    def from_block_edges(
        cls,
        num_blocks: int,
        block_src: np.ndarray,
        block_dst: np.ndarray,
        weights: np.ndarray,
    ) -> "CSRBlockMatrix":
        """Build from per-edge block endpoints (vectorized construction)."""
        out = cls(num_blocks)
        if np.size(block_src):
            np.add.at(out.data, (block_src, block_dst), weights)
            out._row_sums = out.data.sum(axis=1)
            out._col_sums = out.data.sum(axis=0)
        return out

    # ------------------------------------------------------------------
    # Scalar element access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> int:
        """Return entry ``(i, j)`` (0 when absent)."""
        return int(self.data[i, j])

    def add(self, i: int, j: int, delta: int) -> None:
        """Add ``delta`` to entry ``(i, j)``; negative totals are an error."""
        if delta == 0:
            return
        new_val = int(self.data[i, j]) + delta
        if new_val < 0:
            raise ValueError(f"block matrix entry ({i}, {j}) would become negative ({new_val})")
        self.data[i, j] = new_val
        self._row_sums[i] += delta
        self._col_sums[j] += delta

    def set(self, i: int, j: int, value: int) -> None:
        """Set entry ``(i, j)`` to ``value`` (must be non-negative)."""
        if value < 0:
            raise ValueError("block matrix entries must be non-negative")
        delta = int(value) - int(self.data[i, j])
        self.data[i, j] = value
        self._row_sums[i] += delta
        self._col_sums[j] += delta

    # ------------------------------------------------------------------
    # Batched access (the vectorized kernels' substrate)
    # ------------------------------------------------------------------
    def get_many(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gather ``data[rows[k], cols[k]]`` for all ``k`` at once."""
        return self.data[rows, cols]

    def add_many(self, rows: np.ndarray, cols: np.ndarray, deltas: np.ndarray) -> None:
        """Scatter-add many deltas at once (duplicate positions accumulate)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        np.add.at(self.data, (rows, cols), deltas)
        if np.any(self.data[rows, cols] < 0):
            np.subtract.at(self.data, (rows, cols), deltas)
            raise ValueError("add_many would make a block matrix entry negative")
        np.add.at(self._row_sums, rows, deltas)
        np.add.at(self._col_sums, cols, deltas)

    def row_array(self, i: int) -> np.ndarray:
        """Dense view of row ``i`` (read-only by convention)."""
        return self.data[i]

    def col_array(self, j: int) -> np.ndarray:
        """Dense view of column ``j`` (read-only by convention)."""
        return self.data[:, j]

    def nonzero_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, value)`` arrays of the non-zero entries, row-major."""
        i, j = np.nonzero(self.data)
        return i, j, self.data[i, j]

    def row_entries(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s non-zero ``(columns, values)``, ascending columns."""
        row = self.data[i]
        cols = np.flatnonzero(row)
        return cols, row[cols]

    def col_entries(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``j``'s non-zero ``(rows, values)``, ascending rows."""
        col = self.data[:, j]
        rows = np.flatnonzero(col)
        return rows, col[rows]

    # ------------------------------------------------------------------
    # Row / column views (snapshots)
    # ------------------------------------------------------------------
    def row(self, i: int) -> Dict[int, int]:
        """Non-zero entries of row ``i`` as ``{column: count}`` (snapshot)."""
        cols = np.nonzero(self.data[i])[0]
        return {int(j): int(self.data[i, j]) for j in cols}

    def col(self, j: int) -> Dict[int, int]:
        """Non-zero entries of column ``j`` as ``{row: count}`` (snapshot)."""
        rows = np.nonzero(self.data[:, j])[0]
        return {int(i): int(self.data[i, j]) for i in rows}

    def row_sum(self, i: int) -> int:
        return int(self._row_sums[i])

    def col_sum(self, j: int) -> int:
        return int(self._col_sums[j])

    def row_sums(self) -> np.ndarray:
        return self._row_sums.copy()

    def col_sums(self) -> np.ndarray:
        return self._col_sums.copy()

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------
    def total(self) -> int:
        """Sum of all entries (the number of edges in the graph)."""
        return int(self._row_sums.sum())

    def nnz(self) -> int:
        """Number of non-zero entries."""
        return int(np.count_nonzero(self.data))

    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over non-zero ``(i, j, value)`` entries, row-major."""
        i_arr, j_arr, v_arr = self.nonzero_arrays()
        for i, j, v in zip(i_arr.tolist(), j_arr.tolist(), v_arr.tolist()):
            yield i, j, v

    def copy(self) -> "CSRBlockMatrix":
        out = CSRBlockMatrix.__new__(CSRBlockMatrix)
        out.num_blocks = self.num_blocks
        out.data = self.data.copy()
        out._row_sums = self._row_sums.copy()
        out._col_sums = self._col_sums.copy()
        return out

    def to_dense(self) -> np.ndarray:
        return self.data.copy()

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "CSRBlockMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("block matrix must be square")
        if np.any(matrix < 0):
            raise ValueError("block matrix entries must be non-negative")
        out = cls(matrix.shape[0])
        out.data[...] = matrix
        out._row_sums = out.data.sum(axis=1)
        out._col_sums = out.data.sum(axis=0)
        return out

    def check_consistent(self) -> None:
        """Verify the cached marginals against the data (used by tests)."""
        if np.any(self.data < 0):
            raise AssertionError("negative block matrix entry")
        if not np.array_equal(self._row_sums, self.data.sum(axis=1)):
            raise AssertionError("cached row sums out of sync")
        if not np.array_equal(self._col_sums, self.data.sum(axis=0)):
            raise AssertionError("cached column sums out of sync")

    def __eq__(self, other: object) -> bool:
        # Cross-backend comparison goes through the dense form so that a
        # dense and a sparse matrix holding the same counts compare equal.
        if hasattr(other, "to_dense") and hasattr(other, "num_blocks"):
            return self.num_blocks == other.num_blocks and np.array_equal(
                self.data, other.to_dense()
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRBlockMatrix(B={self.num_blocks}, nnz={self.nnz()})"
