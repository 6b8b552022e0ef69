"""The formal block-matrix storage protocol.

Both blockmodel storage backends — the dense vectorized array
(:class:`~repro.blockmodel.csr_matrix.CSRBlockMatrix`, the default) and
the true-sparse CSR/COO representation
(:class:`~repro.blockmodel.sparse_csr_matrix.SparseCSRBlockMatrix`, for
block counts too large for a dense matrix) — implement
:class:`BlockMatrixBackend` and are listed under their
:attr:`~BlockMatrixBackend.backend` names in
:data:`repro.core.config.BACKENDS`.

The protocol has four layers:

construction
    ``__init__(num_blocks)`` for an empty matrix and
    :meth:`~BlockMatrixBackend.from_block_edges` for the vectorized
    build-from-edge-arrays path used by ``Blockmodel.from_assignment``.
element access and mutation
    ``get`` / ``add`` / ``set`` plus the batched ``get_many`` /
    ``add_many`` used by the vectorized kernels.  Negative entries are
    always an error, enforced at mutation time.
cached marginals and views
    ``row`` / ``col`` dict snapshots, ``row_entries`` / ``col_entries``
    sorted sparse views, and the row/column sums the proposal
    distributions sample against.
clone / compact
    ``copy`` produces an independent deep copy; :meth:`compact` folds any
    pending write buffer into the primary representation (a no-op for
    backends without one).

Every pipeline path — the vectorized ΔDL kernels
(:func:`repro.blockmodel.deltas.delta_dl_for_moves`,
:func:`repro.blockmodel.deltas.delta_dl_for_merges`,
:func:`repro.core.proposals.hastings_corrections`) and the drivers — runs
on every backend through this protocol, with no per-backend branches.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, Tuple

import numpy as np

__all__ = ["BlockMatrixBackend"]


class BlockMatrixBackend(abc.ABC):
    """Abstract base of every block (community-to-community) matrix backend.

    A backend stores a square ``B × B`` matrix of non-negative integer edge
    counts.  Implementations are interchangeable inside
    :class:`~repro.blockmodel.blockmodel.Blockmodel`; the cross-backend
    differential suite (``tests/differential/``) holds them to a stronger
    contract than the type signatures: under a fixed seed, every
    backend must drive the SBP pipeline through **bit-identical** states
    (same merge selections, same assignments, same description-length
    floats).  The ordering guarantees that make this possible are part of
    the protocol: ``nonzero_arrays`` / ``row_entries`` / ``col_entries``
    enumerate entries in ascending index order on every backend.
    """

    __slots__ = ()

    #: Name in :data:`repro.core.config.BACKENDS` (``"csr"`` / ``"sparse_csr"``).
    backend: str = "abstract"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def from_block_edges(
        cls,
        num_blocks: int,
        block_src: np.ndarray,
        block_dst: np.ndarray,
        weights: np.ndarray,
    ) -> "BlockMatrixBackend":
        """Build from per-edge block endpoints (duplicate pairs accumulate)."""

    # ------------------------------------------------------------------
    # Element access / mutation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def get(self, i: int, j: int) -> int:
        """Return entry ``(i, j)`` (0 when absent)."""

    @abc.abstractmethod
    def add(self, i: int, j: int, delta: int) -> None:
        """Add ``delta`` to entry ``(i, j)``; negative totals are an error."""

    @abc.abstractmethod
    def set(self, i: int, j: int, value: int) -> None:
        """Set entry ``(i, j)`` to ``value`` (must be non-negative)."""

    @abc.abstractmethod
    def get_many(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gather ``[(i, j)]`` entries as an int64 array (batched ``get``)."""

    @abc.abstractmethod
    def add_many(self, rows: np.ndarray, cols: np.ndarray, deltas: np.ndarray) -> None:
        """Scatter-add many deltas at once (duplicate positions accumulate)."""

    # ------------------------------------------------------------------
    # Row / column views
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def row(self, i: int) -> Dict[int, int]:
        """Non-zero entries of row ``i`` as ``{column: count}``."""

    @abc.abstractmethod
    def col(self, j: int) -> Dict[int, int]:
        """Non-zero entries of column ``j`` as ``{row: count}``."""

    @abc.abstractmethod
    def row_entries(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s non-zero ``(columns, values)`` in ascending column order.

        The sampling paths (:meth:`Blockmodel.sample_neighbor_block`) build
        cumulative sums over these arrays; ascending order on every backend
        is what keeps a given RNG draw selecting the same block regardless
        of storage.
        """

    @abc.abstractmethod
    def col_entries(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``j``'s non-zero ``(rows, values)`` in ascending row order."""

    @abc.abstractmethod
    def row_sum(self, i: int) -> int: ...

    @abc.abstractmethod
    def col_sum(self, j: int) -> int: ...

    @abc.abstractmethod
    def row_sums(self) -> np.ndarray: ...

    @abc.abstractmethod
    def col_sums(self) -> np.ndarray: ...

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def total(self) -> int:
        """Sum of all entries (the number of edges in the graph)."""

    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of non-zero entries."""

    @abc.abstractmethod
    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over non-zero ``(i, j, value)`` entries, row-major."""

    @abc.abstractmethod
    def nonzero_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, value)`` arrays over the non-zero entries, row-major.

        Ascending column order within each row is required on every backend
        so that vectorized float reductions over the arrays (e.g. the
        log-likelihood) stay bit-identical across backends.
        """

    def csr_structure(self) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Row- and column-major CSR views of the non-zero entries.

        Returns ``((row_j, row_v, row_ptr), (col_i, col_v, col_ptr))``: the
        non-zeros in row-major order with a row pointer, and the same
        entries in column-major order with a column pointer.  This is the
        substrate of the batched merge kernel
        (:func:`repro.blockmodel.deltas.delta_dl_for_merges`); backends
        that already store CSR/CSC arrays override it to return views.
        """
        nz_i, nz_j, nz_v = self.nonzero_arrays()
        num_blocks = self.num_blocks  # type: ignore[attr-defined]
        row_ptr = np.zeros(num_blocks + 1, dtype=np.int64)
        np.cumsum(np.bincount(nz_i, minlength=num_blocks), out=row_ptr[1:])
        order = np.lexsort((nz_i, nz_j))
        col_i, col_v = nz_i[order], nz_v[order]
        col_ptr = np.zeros(num_blocks + 1, dtype=np.int64)
        np.cumsum(np.bincount(nz_j, minlength=num_blocks), out=col_ptr[1:])
        return (nz_j, nz_v, row_ptr), (col_i, col_v, col_ptr)

    # ------------------------------------------------------------------
    # Clone / compact
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def copy(self) -> "BlockMatrixBackend":
        """An independent deep copy (mutating either side affects only it)."""

    def compact(self) -> None:
        """Fold any pending write buffer into the primary representation.

        A no-op for backends without a buffer.  Compaction never changes
        the logical matrix, only its physical layout.
        """

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialise the full ``B × B`` array (tests and tiny graphs only)."""

    @abc.abstractmethod
    def check_consistent(self) -> None:
        """Verify internal invariants, raising ``AssertionError`` on damage."""
