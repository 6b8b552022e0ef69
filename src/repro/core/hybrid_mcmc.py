"""Hybrid and batch MCMC sweeps (the shared-memory parallel formulation).

The paper parallelises MCMC inside a rank with the Hybrid SBP algorithm of
Wanye et al. [11]: *informative, high-degree* vertices are processed
sequentially with exact Metropolis-Hastings, while the long tail of
low-degree vertices is processed with asynchronous Gibbs sampling — many
proposals evaluated against a slightly stale blockmodel, whose accepted
moves are then applied.

In this pure-Python reproduction the asynchronous batch is modelled
*algorithmically*: proposals within a batch are all evaluated against the
state at the start of the batch (that is the staleness that matters for
convergence behaviour), then the accepted moves are applied one after
another with freshly recomputed neighbour counts so the blockmodel stays
exactly consistent with the assignment.  True thread-level parallelism would
not change the sampled distribution further, only the wall-clock time, which
the harness models separately.

``batch_gibbs_sweep`` is the degenerate case where *every* vertex is
evaluated against the sweep-start state — this is the batch parallelism of
the original Graph Challenge python implementation, used here as the
"reference implementation" baseline of Table VI.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.deltas import delta_dl_for_moves
from repro.core.config import SBPConfig
from repro.core.mcmc import SweepResult, metropolis_hastings_sweep
# ``acceptance_probability`` and ``evaluate_vertex_move`` (the scalar oracles
# of the batch kernels) stay bound here: bench/trace.py attributes calls
# through this module's names.
from repro.core.proposals import (  # noqa: F401
    acceptance_probabilities,
    acceptance_probability,
    evaluate_vertex_move,
    hastings_corrections,
    propose_block_for_vertex,
)

__all__ = ["split_by_degree", "asynchronous_batch", "hybrid_sweep", "batch_gibbs_sweep"]


def split_by_degree(
    blockmodel: Blockmodel,
    vertices: Sequence[int],
    high_degree_fraction: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``vertices`` into (high-degree, low-degree) sets.

    The top ``high_degree_fraction`` of the vertices by total degree are the
    "informative" ones processed sequentially by the hybrid sweep.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return vertices, vertices
    n_high = int(round(high_degree_fraction * vertices.size))
    if n_high <= 0:
        return vertices[:0], vertices
    if n_high >= vertices.size:
        return vertices, vertices[:0]
    degrees = blockmodel.graph.degrees[vertices]
    order = np.argsort(-degrees, kind="stable")
    return vertices[order[:n_high]], vertices[order[n_high:]]


def asynchronous_batch(
    blockmodel: Blockmodel,
    batch: Sequence[int],
    config: SBPConfig,
    rng: np.random.Generator,
) -> SweepResult:
    """Evaluate a batch of proposals against a stale state, then apply them.

    Every proposal in the batch is generated and evaluated against the
    blockmodel as it stood at the start of the batch.  Proposals and
    acceptance uniforms are drawn per vertex, in batch order; all ΔDL
    evaluations and Hastings corrections of the batch are then computed with
    the vectorized kernels (:func:`repro.blockmodel.deltas.delta_dl_for_moves`)
    in a handful of whole-batch numpy operations.  Accepted moves are
    applied afterwards; their recorded ΔDL values are the stale estimates
    (the phase driver recomputes the exact DL at the end of the phase).
    """
    result = SweepResult()
    assignment = blockmodel.assignment
    move_vertices: List[int] = []
    move_targets: List[int] = []
    draws: List[float] = []
    for v in batch:
        v = int(v)
        proposal_block = propose_block_for_vertex(blockmodel, v, rng)
        if proposal_block == int(assignment[v]):
            continue
        result.proposed_moves += 1
        move_vertices.append(v)
        move_targets.append(proposal_block)
        draws.append(rng.random())
    if not move_vertices:
        return result

    evaluation = delta_dl_for_moves(
        blockmodel, np.asarray(move_vertices), np.asarray(move_targets)
    )
    hastings = hastings_corrections(blockmodel, evaluation)
    probs = acceptance_probabilities(evaluation.delta_dl, hastings, config.beta)
    accepted_idx = np.flatnonzero(np.asarray(draws) < probs)

    vertices = np.asarray(move_vertices, dtype=np.int64)[accepted_idx]
    targets = np.asarray(move_targets, dtype=np.int64)[accepted_idx]
    blockmodel.move_vertices(vertices, targets)  # vertices are unique within a batch
    result.accepted_moves += int(accepted_idx.size)
    # In-order ``sum``, not pairwise ``np.sum``: the float a move-by-move
    # running total gives.
    result.delta_dl += sum(evaluation.delta_dl[accepted_idx].tolist())
    result.moves.extend(zip(vertices.tolist(), targets.tolist()))
    return result


def hybrid_sweep(
    blockmodel: Blockmodel,
    vertices: Sequence[int],
    config: SBPConfig,
    rng: np.random.Generator,
) -> SweepResult:
    """One hybrid sweep: sequential MH for hubs, async batches for the tail."""
    high, low = split_by_degree(blockmodel, vertices, config.hybrid_high_degree_fraction)
    total = SweepResult()

    sequential = metropolis_hastings_sweep(blockmodel, high, config, rng)
    total.accepted_moves += sequential.accepted_moves
    total.proposed_moves += sequential.proposed_moves
    total.delta_dl += sequential.delta_dl
    total.moves.extend(sequential.moves)

    batch_size = max(int(config.hybrid_batch_size), 1)
    for start in range(0, low.shape[0], batch_size):
        batch = low[start : start + batch_size]
        batch_result = asynchronous_batch(blockmodel, batch, config, rng)
        total.accepted_moves += batch_result.accepted_moves
        total.proposed_moves += batch_result.proposed_moves
        total.delta_dl += batch_result.delta_dl
        total.moves.extend(batch_result.moves)
    return total


def batch_gibbs_sweep(
    blockmodel: Blockmodel,
    vertices: Sequence[int],
    config: SBPConfig,
    rng: np.random.Generator,
) -> SweepResult:
    """Whole-sweep batch parallelism: every proposal sees the sweep-start state.

    This reproduces the convergence behaviour of the original python Graph
    Challenge implementation's batched MCMC (the paper's Table VI baseline),
    which converges more slowly per sweep than the hybrid algorithm because
    all proposals are evaluated against stale state.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    return asynchronous_batch(blockmodel, vertices, config, rng)
