"""Sparse block (community-to-community edge count) matrix.

The paper's C++ implementation stores the blockmodel matrix as "a vector of
hashmap objects" and additionally keeps the transpose "for fast access along
both rows and columns" (Section III-A, optimisations (a) and (b)).  This
class is the Python equivalent: ``rows[i]`` and ``cols[j]`` are dictionaries
mapping the other index to the (strictly positive) edge count.

All mutation goes through :meth:`add`, which keeps the two views consistent
and drops entries that reach zero, so iteration only ever sees non-zero
counts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.blockmodel.backend import BlockMatrixBackend

__all__ = ["SparseBlockMatrix"]


class SparseBlockMatrix(BlockMatrixBackend):
    """A square sparse integer matrix with row and column hash-map views.

    The reference implementation of :class:`BlockMatrixBackend`: scalar
    access only (``supports_batched_kernels`` is False), named ``"dict"``.
    """

    backend = "dict"

    __slots__ = ("num_blocks", "rows", "cols")

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        self.num_blocks = int(num_blocks)
        self.rows: List[Dict[int, int]] = [dict() for _ in range(num_blocks)]
        self.cols: List[Dict[int, int]] = [dict() for _ in range(num_blocks)]

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> int:
        """Return entry ``(i, j)`` (0 when absent)."""
        return self.rows[i].get(j, 0)

    def add(self, i: int, j: int, delta: int) -> None:
        """Add ``delta`` to entry ``(i, j)``; negative totals are an error."""
        if delta == 0:
            return
        row = self.rows[i]
        new_val = row.get(j, 0) + delta
        if new_val < 0:
            raise ValueError(f"block matrix entry ({i}, {j}) would become negative ({new_val})")
        if new_val == 0:
            row.pop(j, None)
            self.cols[j].pop(i, None)
        else:
            row[j] = new_val
            self.cols[j][i] = new_val

    def set(self, i: int, j: int, value: int) -> None:
        """Set entry ``(i, j)`` to ``value`` (must be non-negative)."""
        if value < 0:
            raise ValueError("block matrix entries must be non-negative")
        if value == 0:
            self.rows[i].pop(j, None)
            self.cols[j].pop(i, None)
        else:
            self.rows[i][j] = value
            self.cols[j][i] = value

    # ------------------------------------------------------------------
    # Row / column views
    # ------------------------------------------------------------------
    def row(self, i: int) -> Dict[int, int]:
        """The non-zero entries of row ``i`` as ``{column: count}`` (live view)."""
        return self.rows[i]

    def col(self, j: int) -> Dict[int, int]:
        """The non-zero entries of column ``j`` as ``{row: count}`` (live view)."""
        return self.cols[j]

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i].values())

    def col_sum(self, j: int) -> int:
        return sum(self.cols[j].values())

    def row_sums(self) -> np.ndarray:
        return np.asarray([self.row_sum(i) for i in range(self.num_blocks)], dtype=np.int64)

    def col_sums(self) -> np.ndarray:
        return np.asarray([self.col_sum(j) for j in range(self.num_blocks)], dtype=np.int64)

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------
    def total(self) -> int:
        """Sum of all entries (the number of edges in the graph)."""
        return sum(sum(r.values()) for r in self.rows)

    def nnz(self) -> int:
        """Number of non-zero entries."""
        return sum(len(r) for r in self.rows)

    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over non-zero ``(i, j, value)`` entries, row-major."""
        for i, row in enumerate(self.rows):
            for j, val in row.items():
                yield i, j, val

    def nonzero_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, value)`` arrays over the non-zero entries, row-major.

        Same contract as :meth:`CSRBlockMatrix.nonzero_arrays`, including
        ascending column order within each row — the two backends must emit
        identically-ordered arrays so that vectorized float reductions over
        them (e.g. the log-likelihood) stay bit-identical across backends.
        """
        count = self.nnz()
        i_arr = np.fromiter(
            (i for i, row in enumerate(self.rows) for _ in row), dtype=np.int64, count=count
        )
        j_arr = np.fromiter(
            (j for row in self.rows for j in sorted(row)), dtype=np.int64, count=count
        )
        v_arr = np.fromiter(
            (row[j] for row in self.rows for j in sorted(row)), dtype=np.int64, count=count
        )
        return i_arr, j_arr, v_arr

    def copy(self) -> "SparseBlockMatrix":
        out = SparseBlockMatrix(self.num_blocks)
        out.rows = [dict(r) for r in self.rows]
        out.cols = [dict(c) for c in self.cols]
        return out

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.num_blocks, self.num_blocks), dtype=np.int64)
        for i, j, val in self.entries():
            mat[i, j] = val
        return mat

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "SparseBlockMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("block matrix must be square")
        out = cls(matrix.shape[0])
        for i, j in zip(*np.nonzero(matrix)):
            out.set(int(i), int(j), int(matrix[i, j]))
        return out

    def check_consistent(self) -> None:
        """Verify that row and column views agree (used by tests)."""
        for i, row in enumerate(self.rows):
            for j, val in row.items():
                if self.cols[j].get(i, 0) != val:
                    raise AssertionError(f"transpose mismatch at ({i}, {j})")
        for j, col in enumerate(self.cols):
            for i, val in col.items():
                if self.rows[i].get(j, 0) != val:
                    raise AssertionError(f"row mismatch at ({i}, {j})")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseBlockMatrix):
            return self.num_blocks == other.num_blocks and self.rows == other.rows
        if hasattr(other, "to_dense") and hasattr(other, "num_blocks"):
            # Cross-backend comparison (e.g. against a CSRBlockMatrix).
            return self.num_blocks == other.num_blocks and np.array_equal(
                self.to_dense(), other.to_dense()
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseBlockMatrix(B={self.num_blocks}, nnz={self.nnz()})"
