"""Description length of the degree-corrected SBM (paper Eqs. 1 and 2).

The SBP objective is the description length

.. math::

    DL = E\\,h\\!\\left(\\frac{C^2}{E}\\right) + V \\log C - L(G|B),

where :math:`h(x) = (1+x)\\log(1+x) - x\\log x` and the degree-corrected
log-likelihood is

.. math::

    L(G|B) = \\sum_{i,j} B_{ij} \\log \\frac{B_{ij}}{d^{out}_i d^{in}_j}.

``description_length`` recomputes DL exactly from a :class:`Blockmodel`;
:mod:`repro.blockmodel.deltas` provides the sparse delta forms used inside
the MCMC and block-merge loops.  The normalised description length
``DL / DL_null`` (Section V-E) is used to evaluate real-world graphs that
have no ground truth.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.blockmodel.blockmodel import Blockmodel
    from repro.graphs.graph import Graph

__all__ = [
    "h_function",
    "log_likelihood",
    "blockmodel_entropy_term",
    "model_complexity_term",
    "description_length",
    "null_description_length",
    "normalized_description_length",
]


def h_function(x: float) -> float:
    """The binary-entropy-like function ``h(x) = (1+x)log(1+x) − x·log x``.

    ``h(0) = 0`` by continuity.
    """
    if x < 0:
        raise ValueError("h(x) is only defined for x >= 0")
    if x == 0:
        return 0.0
    return (1.0 + x) * math.log(1.0 + x) - x * math.log(x)


def log_likelihood(blockmodel: "Blockmodel") -> float:
    """Degree-corrected log-likelihood ``L(G|B)`` of Eq. (1).

    Entries with ``B_ij = 0`` contribute nothing; blocks with zero in- or
    out-degree cannot have incident edges, so no division by zero arises.
    """
    d_out = blockmodel.block_out_degrees
    d_in = blockmodel.block_in_degrees
    i, j, v = blockmodel.matrix.nonzero_arrays()
    if v.size == 0:
        return 0.0
    denom = d_out[i].astype(np.float64) * d_in[j].astype(np.float64)
    return float(np.sum(v * np.log(v / denom)))


def blockmodel_entropy_term(blockmodel: "Blockmodel") -> float:
    """``−L(G|B)``, the data term of the description length."""
    return -log_likelihood(blockmodel)


def model_complexity_term(num_vertices: int, num_edges: int, num_blocks: int) -> float:
    """The model term ``E·h(C²/E) + V·log C`` of Eq. (2).

    With no edges the model term is just the assignment cost ``V log C``;
    with a single block both costs degenerate gracefully.
    """
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    term = num_vertices * math.log(num_blocks) if num_blocks > 0 else 0.0
    if num_edges > 0:
        term += num_edges * h_function((num_blocks * num_blocks) / num_edges)
    return term


def description_length(blockmodel: "Blockmodel") -> float:
    """Exact description length (Eq. 2) of the current blockmodel state."""
    return (
        model_complexity_term(blockmodel.num_vertices, blockmodel.num_edges, blockmodel.num_blocks)
        - log_likelihood(blockmodel)
    )


def null_description_length(graph: "Graph") -> float:
    """Description length of the null model with every vertex in one block.

    With a single block, ``B_00 = E``, ``d_out = d_in = E``, so
    ``L = E log(1/E)`` and ``DL_null = E·h(1/E) + V·log 1 + E·log E``.
    """
    num_edges = graph.num_edges
    num_vertices = graph.num_vertices
    if num_edges == 0:
        return 0.0
    model = num_edges * h_function(1.0 / num_edges)
    likelihood = num_edges * math.log(num_edges / (float(num_edges) * float(num_edges)))
    return model + num_vertices * math.log(1) - likelihood


def normalized_description_length(dl: float, graph: "Graph") -> float:
    """``DL_norm = DL / DL_null`` (Section V-E; lower is better)."""
    null = null_description_length(graph)
    if null == 0.0:
        return float("nan")
    return dl / null
