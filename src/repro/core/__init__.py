"""Core SBP algorithms: sequential SBP, DC-SBP, and EDiSt.

Public entry points
-------------------
``stochastic_block_partition(graph, config)``
    Sequential / shared-memory SBP (the single-node baseline).
``divide_and_conquer_sbp(graph, num_ranks, config)``
    The DC-SBP baseline of Uppal et al. (paper Alg. 3) over simulated MPI
    ranks.
``edist(graph, num_ranks, config)``
    The paper's exact distributed SBP algorithm (Algs. 4 and 5).

All three return an :class:`~repro.core.results.SBPResult`.
"""

from repro.core.config import PRESETS, MCMCVariant, SBPConfig, config_preset
from repro.core.context import (
    CycleEvent,
    MCMCSweepEvent,
    MergePhaseEvent,
    RunCancelled,
    RunContext,
    RunObserver,
)
from repro.core.results import IterationRecord, SBPResult
from repro.core.sbp import stochastic_block_partition
from repro.core.dcsbp import divide_and_conquer_sbp, dcsbp_rank_program, merge_partial_pair, PartialResult
from repro.core.edist import edist, edist_rank_program, distributed_block_merge, distributed_mcmc_phase
from repro.core.reference import reference_dcsbp, reference_config, DenseBlockmodel
from repro.core.golden_ratio import GoldenRatioSearch
from repro.core.merges import block_merge_phase, propose_merges, select_and_apply_merges, MergeProposal
from repro.core.mcmc import mcmc_phase, metropolis_hastings_sweep
from repro.core.hybrid_mcmc import hybrid_sweep, batch_gibbs_sweep

__all__ = [
    "SBPConfig",
    "MCMCVariant",
    "PRESETS",
    "config_preset",
    "RunContext",
    "RunObserver",
    "RunCancelled",
    "CycleEvent",
    "MergePhaseEvent",
    "MCMCSweepEvent",
    "SBPResult",
    "IterationRecord",
    "stochastic_block_partition",
    "divide_and_conquer_sbp",
    "dcsbp_rank_program",
    "merge_partial_pair",
    "PartialResult",
    "edist",
    "edist_rank_program",
    "distributed_block_merge",
    "distributed_mcmc_phase",
    "reference_dcsbp",
    "reference_config",
    "DenseBlockmodel",
    "GoldenRatioSearch",
    "block_merge_phase",
    "propose_merges",
    "select_and_apply_merges",
    "MergeProposal",
    "mcmc_phase",
    "metropolis_hastings_sweep",
    "hybrid_sweep",
    "batch_gibbs_sweep",
]
