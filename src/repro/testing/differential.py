"""Cross-backend differential-testing harness.

The paper's headline guarantee for EDiSt is that the replicated blockmodels
stay bit-identical across ranks; this repository extends the same discipline
to its storage backends: under a fixed seed, every registered backend — the
dense vectorized ``"csr"`` array (the default) and the true-sparse
``"sparse_csr"`` representation (:data:`ALL_BACKENDS`) — must walk
through *exactly* the same sequence of states: identical merge selections,
identical assignments and identical description lengths at every phase
boundary, through sequential SBP, DC-SBP and EDiSt alike.  The
guarantee is enforced by tests (``tests/differential/``), not by
convention.

Two granularities are provided:

* :func:`trace_phases` drives block-merge / MCMC cycles by hand and captures
  a :class:`PhaseSnapshot` at every phase boundary (including the raw merge
  proposals, whose ΔDL floats are compared **bitwise**);
* :func:`run_backend_pair` runs a full pipeline (:func:`run_sequential`,
  :func:`run_dcsbp`, :func:`run_edist`) once per backend, and
  :func:`assert_results_identical` compares the end states plus the
  per-cycle history records (each of which is a phase-boundary DL).

The same discipline applies across *transports*: the threaded and the
multiprocess rank launchers (:data:`ALL_TRANSPORTS`) must be pure placement
decisions — :func:`run_transports` / :func:`assert_all_transports_identical`
hold DC-SBP and EDiSt to bit-identical results whichever substrate the
ranks run on.

:func:`golden_record` serialises a result for the golden-file regression
tests (description lengths are stored as ``float.hex`` so the comparison is
exact, not approximate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import BACKENDS, SBPConfig
from repro.core.dcsbp import divide_and_conquer_sbp
from repro.core.edist import edist
from repro.core.mcmc import mcmc_phase
from repro.core.merges import propose_merges, select_and_apply_merges
from repro.core.results import SBPResult
from repro.core.sbp import stochastic_block_partition
from repro.graphs.graph import Graph
from repro.utils.rng import RngRegistry

__all__ = [
    "ALL_BACKENDS",
    "BACKEND_PAIR",
    "REFERENCE_BACKEND",
    "CANDIDATE_BACKENDS",
    "PhaseSnapshot",
    "PhaseTrace",
    "trace_phases",
    "assert_traces_identical",
    "run_sequential",
    "run_dcsbp",
    "run_edist",
    "run_backends",
    "run_backend_pair",
    "assert_results_identical",
    "assert_all_results_identical",
    "ALL_TRANSPORTS",
    "REFERENCE_TRANSPORT",
    "run_transports",
    "assert_all_transports_identical",
    "golden_record",
]

#: Every storage backend the differential suite compares: the vectorized
#: dense array and the scipy-free true-sparse representation.
ALL_BACKENDS: Tuple[str, ...] = tuple(BACKENDS)

#: The backend the others are compared against (the default).  What defines
#: correctness is the committed golden partitions
#: (``tests/differential/golden/``) and the scalar kernel oracles.
REFERENCE_BACKEND: str = "csr"

#: The backends compared against the reference (pairwise identity against a
#: common reference implies identity between the candidates too).
CANDIDATE_BACKENDS: Tuple[str, ...] = tuple(
    backend for backend in ALL_BACKENDS if backend != REFERENCE_BACKEND
)

#: The two-backend comparison of :func:`run_backend_pair`.
BACKEND_PAIR: Tuple[str, str] = ("csr", "sparse_csr")

#: The multi-rank transports the cross-transport suite compares (``"self"``
#: is excluded: it only ever runs single-rank launches).
ALL_TRANSPORTS: Tuple[str, ...] = ("threads", "processes")

#: The transport whose behaviour defines correctness (the original
#: simulated-MPI substrate).
REFERENCE_TRANSPORT: str = "threads"


@dataclass
class PhaseSnapshot:
    """The full observable state at one phase boundary.

    ``merge_proposals`` is only set for ``phase == "merge_proposals"`` and
    holds the ``(block, target, delta_dl)`` triples exactly as proposed —
    the ΔDL floats are compared bitwise, which is what pins down "identical
    merge selections" rather than merely identical outcomes.
    """

    cycle: int
    phase: str  # "merge_proposals" | "block_merge" | "mcmc"
    num_blocks: int
    description_length: float
    assignment: Optional[np.ndarray] = None
    merge_proposals: Optional[Tuple[Tuple[int, int, float], ...]] = None


@dataclass
class PhaseTrace:
    """Every phase boundary of one backend's run, in order."""

    backend: str
    snapshots: List[PhaseSnapshot]


def trace_phases(graph: Graph, config: SBPConfig, max_cycles: int = 4) -> PhaseTrace:
    """Run up to ``max_cycles`` (block-merge + MCMC) cycles, capturing state.

    The cycle structure mirrors the sequential driver (propose → select and
    apply → MCMC, halving the block count each cycle) but stops after a fixed
    number of cycles instead of running the golden-ratio search, so the trace
    covers the exploration phase deterministically on both backends.
    """
    rngs = RngRegistry(config.seed)
    blockmodel = Blockmodel.from_graph(graph, matrix_backend=config.matrix_backend)
    snapshots: List[PhaseSnapshot] = []
    for cycle in range(1, max_cycles + 1):
        num_to_merge = max(int(round(blockmodel.num_blocks * config.block_reduction_rate)), 0)
        if num_to_merge <= 0 or blockmodel.num_blocks - num_to_merge < config.min_blocks:
            break
        proposals = propose_merges(
            blockmodel, range(blockmodel.num_blocks), config, rngs.get("merge", cycle)
        )
        snapshots.append(
            PhaseSnapshot(
                cycle=cycle,
                phase="merge_proposals",
                num_blocks=blockmodel.num_blocks,
                description_length=blockmodel.description_length(),
                merge_proposals=tuple((p.block, p.target, p.delta_dl) for p in proposals),
            )
        )
        blockmodel = select_and_apply_merges(blockmodel, proposals, num_to_merge)
        snapshots.append(
            PhaseSnapshot(
                cycle=cycle,
                phase="block_merge",
                num_blocks=blockmodel.num_blocks,
                description_length=blockmodel.description_length(),
                assignment=blockmodel.assignment.copy(),
            )
        )
        phase = mcmc_phase(blockmodel, config, rngs.get("mcmc", cycle))
        snapshots.append(
            PhaseSnapshot(
                cycle=cycle,
                phase="mcmc",
                num_blocks=blockmodel.num_blocks,
                description_length=phase.description_length,
                assignment=blockmodel.assignment.copy(),
            )
        )
    return PhaseTrace(config.matrix_backend, snapshots)


def assert_traces_identical(reference: PhaseTrace, candidate: PhaseTrace) -> None:
    """Assert two phase traces are bit-identical at every boundary."""
    assert len(reference.snapshots) == len(candidate.snapshots), (
        f"trace lengths differ: {reference.backend} has {len(reference.snapshots)} "
        f"snapshots, {candidate.backend} has {len(candidate.snapshots)}"
    )
    for ref, cand in zip(reference.snapshots, candidate.snapshots):
        where = f"cycle {ref.cycle} phase {ref.phase!r} ({reference.backend} vs {candidate.backend})"
        assert (ref.cycle, ref.phase) == (cand.cycle, cand.phase), f"phase order diverged at {where}"
        assert ref.num_blocks == cand.num_blocks, f"block counts differ at {where}"
        assert ref.description_length == cand.description_length, (
            f"description lengths differ at {where}: "
            f"{ref.description_length!r} != {cand.description_length!r}"
        )
        if ref.assignment is not None or cand.assignment is not None:
            assert ref.assignment is not None and cand.assignment is not None
            assert np.array_equal(ref.assignment, cand.assignment), f"assignments differ at {where}"
        assert ref.merge_proposals == cand.merge_proposals, f"merge selections differ at {where}"


# ----------------------------------------------------------------------
# Full-pipeline runners
# ----------------------------------------------------------------------
def run_sequential(graph: Graph, config: SBPConfig) -> SBPResult:
    """Sequential / shared-memory SBP."""
    return stochastic_block_partition(graph, config)


def run_dcsbp(graph: Graph, config: SBPConfig, num_ranks: int = 2, run_context=None) -> SBPResult:
    """DC-SBP over simulated MPI ranks (transport from ``config.transport``)."""
    return divide_and_conquer_sbp(graph, num_ranks, config, run_context=run_context)


def run_edist(graph: Graph, config: SBPConfig, num_ranks: int = 2, run_context=None) -> SBPResult:
    """EDiSt over simulated MPI ranks (transport from ``config.transport``)."""
    return edist(graph, num_ranks, config, run_context=run_context)


def run_backends(
    runner: Callable[..., SBPResult],
    graph: Graph,
    config: SBPConfig,
    backends: Tuple[str, ...] = ALL_BACKENDS,
    **kwargs,
) -> Dict[str, SBPResult]:
    """Run ``runner`` once per backend, returning ``{backend: result}``."""
    return {
        backend: runner(graph, config.with_overrides(matrix_backend=backend), **kwargs)
        for backend in backends
    }


def run_backend_pair(
    runner: Callable[..., SBPResult],
    graph: Graph,
    config: SBPConfig,
    **kwargs,
) -> Tuple[SBPResult, SBPResult]:
    """Run ``runner`` once per backend of :data:`BACKEND_PAIR`."""
    results = run_backends(runner, graph, config, backends=BACKEND_PAIR, **kwargs)
    return results[BACKEND_PAIR[0]], results[BACKEND_PAIR[1]]


def assert_results_identical(reference: SBPResult, candidate: SBPResult) -> None:
    """Assert two pipeline results are bit-identical, history included.

    Every :class:`~repro.core.results.IterationRecord` is a phase-boundary
    observation (block count and exact DL after each cycle's MCMC phase), so
    comparing the histories exactly extends the guarantee from the final
    state to the whole trajectory.
    """
    assert np.array_equal(reference.blockmodel.assignment, candidate.blockmodel.assignment), (
        "final assignments differ between backends"
    )
    assert reference.blockmodel.num_blocks == candidate.blockmodel.num_blocks
    assert reference.description_length == candidate.description_length, (
        f"final description lengths differ: "
        f"{reference.description_length!r} != {candidate.description_length!r}"
    )
    assert len(reference.history) == len(candidate.history), "history lengths differ"
    for ref, cand in zip(reference.history, candidate.history):
        assert ref.iteration == cand.iteration
        assert ref.num_blocks == cand.num_blocks, f"cycle {ref.iteration}: block counts differ"
        assert ref.description_length == cand.description_length, (
            f"cycle {ref.iteration}: description lengths differ: "
            f"{ref.description_length!r} != {cand.description_length!r}"
        )


def assert_all_results_identical(results: Dict[str, SBPResult]) -> None:
    """Assert every backend's result is bit-identical to the reference's.

    ``results`` maps backend name to result (as returned by
    :func:`run_backends`); the :data:`REFERENCE_BACKEND` entry anchors the
    comparison, so pairwise identity between all backends follows.
    """
    reference = results[REFERENCE_BACKEND]
    for backend, candidate in results.items():
        if backend == REFERENCE_BACKEND:
            continue
        try:
            assert_results_identical(reference, candidate)
        except AssertionError as exc:
            raise AssertionError(f"backend {backend!r} diverged from reference: {exc}") from exc


def run_transports(
    runner: Callable[..., SBPResult],
    graph: Graph,
    config: SBPConfig,
    transports: Tuple[str, ...] = ALL_TRANSPORTS,
    **kwargs,
) -> Dict[str, SBPResult]:
    """Run ``runner`` once per transport, returning ``{transport: result}``.

    The config's other fields (seed included) are held fixed, so the results
    must be bit-identical — where the ranks physically run is not allowed to
    leak into the algorithm.
    """
    return {
        transport: runner(graph, config.with_overrides(transport=transport), **kwargs)
        for transport in transports
    }


def assert_all_transports_identical(results: Dict[str, SBPResult]) -> None:
    """Assert every transport's result is bit-identical to the reference's.

    ``results`` maps transport name to result (as returned by
    :func:`run_transports`); :data:`REFERENCE_TRANSPORT` anchors the
    comparison.
    """
    reference = results[REFERENCE_TRANSPORT]
    for transport, candidate in results.items():
        if transport == REFERENCE_TRANSPORT:
            continue
        try:
            assert_results_identical(reference, candidate)
        except AssertionError as exc:
            raise AssertionError(f"transport {transport!r} diverged from reference: {exc}") from exc


# ----------------------------------------------------------------------
# Golden-file support
# ----------------------------------------------------------------------
def golden_record(result: SBPResult) -> Dict:
    """Serialisable exact record of a result (for golden-file regression).

    The description length is stored as ``float.hex`` so a golden comparison
    is bitwise, immune to decimal round-tripping.
    """
    return {
        "num_blocks": int(result.blockmodel.num_blocks),
        "description_length_hex": float(result.description_length).hex(),
        "assignment": [int(b) for b in result.blockmodel.assignment],
    }
