"""MCMC move proposals and their Metropolis-Hastings evaluation.

The proposal distribution follows the Graph Challenge / Peixoto formulation
used by the paper's baselines:

1. pick a uniformly random (weighted) neighbour ``u`` of vertex ``v`` and let
   ``t`` be ``u``'s block;
2. with probability ``B / (d_t + B)`` propose a uniformly random block
   (this keeps the chain ergodic and lets new blocks be reached);
3. otherwise propose a block drawn from the edges incident to block ``t``
   (row ``t`` plus column ``t`` of the block matrix, weighted by
   multiplicity).

Because the proposal is not symmetric, acceptance uses the Hastings
correction computed from the same distribution evaluated in the forward and
reverse directions; the acceptance probability is

``min(1, exp(-beta * ΔDL) * p(s→r) / p(r→s))``.

Self-loops of ``v`` are excluded from the correction (they stay attached to
``v`` wherever it goes); this matches the reference implementations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel, VertexBlockCounts
from repro.blockmodel.deltas import BatchMoveEvaluation, MoveDelta, delta_dl_for_move

__all__ = [
    "ProposalEvaluation",
    "propose_block_for_vertex",
    "hastings_correction",
    "hastings_corrections",
    "evaluate_vertex_move",
    "acceptance_probability",
    "acceptance_probabilities",
]


@dataclass
class ProposalEvaluation:
    """A proposed vertex move together with everything needed to accept it."""

    move: MoveDelta
    hastings: float

    @property
    def delta_dl(self) -> float:
        return self.move.delta_dl


def _combined_neighbor_block_counts(counts: VertexBlockCounts) -> Dict[int, int]:
    combined: Dict[int, int] = dict(counts.out_counts)
    for b, w in counts.in_counts.items():
        combined[b] = combined.get(b, 0) + w
    return combined


def propose_block_for_vertex(
    blockmodel: Blockmodel,
    vertex: int,
    rng: np.random.Generator,
) -> int:
    """Propose a destination block for ``vertex`` (may equal its own block)."""
    num_blocks = blockmodel.num_blocks
    if num_blocks <= 1:
        return 0
    graph = blockmodel.graph
    neighbors = graph.neighbors(vertex)
    if neighbors.shape[0] == 0:
        # Isolated vertex: uniform proposal keeps the chain ergodic.
        return int(rng.integers(num_blocks))
    weights = graph.neighbor_weights(vertex)
    total = int(weights.sum())
    if total <= 0:
        # All incident edges have zero weight (possible on degenerate or
        # synthetically corrupted inputs): fall back to the uniform proposal
        # rather than asking the RNG for an integer below 0.
        return int(rng.integers(num_blocks))
    pick = int(rng.integers(total))
    # See Blockmodel.sample_neighbor_block on ``accumulate`` and ``bisect``.
    u = int(neighbors[bisect_right(list(accumulate(weights.tolist())), pick)])
    t = int(blockmodel.assignment[u])
    # Scalar lookups instead of the block_total_degrees property, which
    # materialises a fresh length-B array on every access.
    d_t = int(blockmodel.block_out_degrees[t]) + int(blockmodel.block_in_degrees[t])
    if rng.random() < num_blocks / (d_t + num_blocks):
        return int(rng.integers(num_blocks))
    s = blockmodel.sample_neighbor_block(t, rng)
    if s < 0:
        return int(rng.integers(num_blocks))
    return int(s)


def hastings_correction(
    blockmodel: Blockmodel,
    counts: VertexBlockCounts,
    from_block: int,
    to_block: int,
) -> float:
    """``p(s→r) / p(r→s)`` for the proposal distribution described above."""
    r, s = int(from_block), int(to_block)
    if r == s:
        return 1.0
    combined = _combined_neighbor_block_counts(counts)
    if not combined:
        return 1.0
    num_blocks = blockmodel.num_blocks
    matrix = blockmodel.matrix
    # Scalar degree lookups: the block_total_degrees property would build a
    # fresh length-B array on every proposal evaluation.
    d_out_arr = blockmodel.block_out_degrees
    d_in_arr = blockmodel.block_in_degrees

    def d_total(t: int) -> int:
        return int(d_out_arr[t]) + int(d_in_arr[t])

    # Sparse matrix delta induced by the move (mirrors Blockmodel.move_vertex),
    # needed to evaluate the reverse proposal on the post-move state.
    entry_delta: Dict[Tuple[int, int], int] = {}

    def bump(i: int, j: int, d: int) -> None:
        if d:
            key = (i, j)
            entry_delta[key] = entry_delta.get(key, 0) + d

    for b, w in counts.out_counts.items():
        bump(r, b, -w)
        bump(s, b, w)
    for b, w in counts.in_counts.items():
        bump(b, r, -w)
        bump(b, s, w)
    if counts.self_loop:
        bump(r, r, -counts.self_loop)
        bump(s, s, counts.self_loop)

    def new_value(i: int, j: int) -> int:
        return matrix.get(i, j) + entry_delta.get((i, j), 0)

    degree_shift = counts.out_total + counts.in_total

    def new_degree(t: int) -> int:
        d = d_total(t)
        if t == r:
            d -= degree_shift
        elif t == s:
            d += degree_shift
        return d

    forward = 0.0
    backward = 0.0
    for t, k_t in combined.items():
        forward += k_t * (matrix.get(t, s) + matrix.get(s, t) + 1.0) / (d_total(t) + num_blocks)
        backward += k_t * (new_value(t, r) + new_value(r, t) + 1.0) / (new_degree(t) + num_blocks)
    if forward <= 0.0:
        return 1.0
    return backward / forward


def evaluate_vertex_move(
    blockmodel: Blockmodel,
    vertex: int,
    to_block: int,
    counts: Optional[VertexBlockCounts] = None,
) -> ProposalEvaluation:
    """Evaluate ΔDL and the Hastings correction for one proposed move."""
    if counts is None:
        counts = blockmodel.vertex_block_counts(vertex)
    move = delta_dl_for_move(blockmodel, vertex, to_block, counts)
    if move.from_block == move.to_block:
        return ProposalEvaluation(move, 1.0)
    correction = hastings_correction(blockmodel, counts, move.from_block, move.to_block)
    return ProposalEvaluation(move, correction)


#: log(p) below which exp() underflows to 0.0 (float64 denormal limit).
_LOG_UNDERFLOW = -745.0


def acceptance_probability(evaluation: ProposalEvaluation, beta: float) -> float:
    """``min(1, exp(-beta * ΔDL) * hastings)``, computed in log space.

    Working with ``-beta·ΔDL + log(hastings)`` keeps the two factors from
    over-/underflowing independently: a large negative ΔDL (huge positive
    exponent) no longer forces acceptance when the Hastings factor is tiny,
    and vice versa.  A non-positive Hastings factor (the reverse proposal is
    impossible) rejects outright.
    """
    hastings = evaluation.hastings
    if hastings <= 0.0:
        return 0.0
    log_p = -beta * evaluation.delta_dl + math.log(hastings)
    if log_p >= 0.0:
        return 1.0
    if log_p < _LOG_UNDERFLOW:
        return 0.0
    return math.exp(log_p)


def acceptance_probabilities(
    delta_dl: np.ndarray,
    hastings: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Vectorized :func:`acceptance_probability` over move batches."""
    delta_dl = np.asarray(delta_dl, dtype=np.float64)
    hastings = np.asarray(hastings, dtype=np.float64)
    positive = hastings > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = -beta * delta_dl + np.log(np.where(positive, hastings, 1.0))
    probs = np.exp(np.clip(log_p, _LOG_UNDERFLOW, 0.0))
    probs = np.where(log_p >= 0.0, 1.0, probs)
    probs = np.where(log_p < _LOG_UNDERFLOW, 0.0, probs)
    return np.where(positive, probs, 0.0)


def hastings_corrections(
    blockmodel: Blockmodel,
    evaluation: BatchMoveEvaluation,
) -> np.ndarray:
    """Batched :func:`hastings_correction` for a :class:`BatchMoveEvaluation`.

    Evaluates the forward and reverse proposal probabilities of every move
    in the batch with whole-batch gathers (``get_many``) against the same
    stale state the ΔDL kernel used.  Moves with no non-self-loop neighbours
    (or ``from == to``) get the neutral correction 1.0.
    """
    matrix = blockmodel.matrix
    num_blocks = blockmodel.num_blocks
    m = evaluation.vertices.shape[0]
    mid = evaluation.nbr_move
    t = evaluation.nbr_block
    k_t = evaluation.nbr_weight
    r = evaluation.from_blocks[mid]
    s = evaluation.to_blocks[mid]
    d_total = blockmodel.block_total_degrees

    forward_terms = k_t * (matrix.get_many(t, s) + matrix.get_many(s, t) + 1.0) / (
        d_total[t] + num_blocks
    )

    new_tr = matrix.get_many(t, r) + evaluation.entry_delta_at(mid, t, r)
    new_rt = matrix.get_many(r, t) + evaluation.entry_delta_at(mid, r, t)
    shift = (evaluation.out_totals + evaluation.in_totals)[mid]
    new_deg_t = d_total[t] + np.where(t == s, shift, 0) - np.where(t == r, shift, 0)
    backward_terms = k_t * (new_tr + new_rt + 1.0) / (new_deg_t + num_blocks)

    forward = np.bincount(mid, weights=forward_terms, minlength=m)
    backward = np.bincount(mid, weights=backward_terms, minlength=m)
    neutral = (forward <= 0.0) | (evaluation.from_blocks == evaluation.to_blocks)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(neutral, 1.0, backward / np.where(forward > 0.0, forward, 1.0))
    return ratio
