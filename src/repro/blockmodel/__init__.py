"""Blockmodel substrate: the degree-corrected SBM state and its entropy.

This package implements the data structures the paper's C++ implementation
optimises (Section III-A):

* a **block matrix protocol** (:mod:`repro.blockmodel.backend`) with two
  interchangeable storage backends: ``"csr"`` (dense numpy with cached
  marginals, the default) and ``"sparse_csr"`` (scipy-free CSR/CSC + COO
  buffer — the same vectorized kernels without the dense memory bound,
  keeping the transpose for fast row- and column-wise access,
  optimisations (a)/(b)),
* **sparse deltas** so that the change in description length of a proposed
  vertex move or block merge touches only the affected rows/columns
  (optimisation (c)),
* the **description length** objective of Eqs. (1)-(2), both as an exact
  recomputation and as delta forms (the two are cross-checked in the tests).

The pointer-based merge tracking (optimisation (d)) lives in
:mod:`repro.core.merges` because it belongs to the block-merge phase.
"""

from repro.blockmodel.backend import BlockMatrixBackend
from repro.blockmodel.csr_matrix import CSRBlockMatrix, MAX_DENSE_BLOCKS
from repro.blockmodel.sparse_csr_matrix import SparseCSRBlockMatrix
from repro.blockmodel.blockmodel import Blockmodel, VertexBlockCounts
from repro.blockmodel.entropy import (
    blockmodel_entropy_term,
    description_length,
    log_likelihood,
    model_complexity_term,
    normalized_description_length,
    null_description_length,
)
from repro.blockmodel.deltas import (
    delta_dl_for_merge,
    delta_dl_for_move,
    delta_dl_for_moves,
    BatchMoveEvaluation,
    MoveDelta,
)

__all__ = [
    "BlockMatrixBackend",
    "CSRBlockMatrix",
    "SparseCSRBlockMatrix",
    "MAX_DENSE_BLOCKS",
    "Blockmodel",
    "VertexBlockCounts",
    "log_likelihood",
    "description_length",
    "normalized_description_length",
    "null_description_length",
    "model_complexity_term",
    "blockmodel_entropy_term",
    "delta_dl_for_move",
    "delta_dl_for_moves",
    "delta_dl_for_merge",
    "BatchMoveEvaluation",
    "MoveDelta",
]
