"""repro — Exact Distributed Stochastic Block Partitioning (EDiSt).

A from-scratch Python reproduction of *"Exact Distributed Stochastic Block
Partitioning"* (Wanye, Gleyzer, Kao, Feng — IEEE CLUSTER 2023), including:

* the sequential / shared-memory SBP baseline (block-merge + MCMC phases
  with a golden-ratio search over the number of communities),
* the divide-and-conquer distributed baseline **DC-SBP**,
* the paper's contribution **EDiSt**, which replicates the blockmodel on
  every rank and synchronises it with periodic all-gathers,
* every substrate the evaluation needs: DCSBM graph generators, a simulated
  MPI communicator, evaluation metrics (NMI, DL_norm, island analysis), and
  a benchmark harness that regenerates every table and figure.

The public API is the :func:`partition` facade over the strategy table —
the paper's "same algorithm, different distribution strategy" comparison
expressed as one entry point::

    from repro import challenge_graph, partition

    graph = challenge_graph("20k-hard", scale=0.05, seed=0)
    result = partition(graph, strategy="edist", config="fast", num_ranks=4)
    print(result.num_communities, result.nmi())
"""

from repro.api import (
    PRESETS,
    STRATEGIES,
    Partitioner,
    RunContext,
    RunHandle,
    RunObserver,
    Strategy,
    config_preset,
    get_strategy,
    partition,
)
from repro.core import SBPConfig, SBPResult
from repro.graphs import Graph
from repro.graphs.generators import (
    challenge_graph,
    parameter_sweep_graph,
    scaling_graph,
    realworld_graph,
    generate_dcsbm_graph,
    DCSBMSpec,
)
from repro.evaluation import normalized_mutual_information, normalized_description_length

__version__ = "5.0.0"


__all__ = [
    # The unified facade
    "partition",
    "Partitioner",
    "RunHandle",
    "RunContext",
    "RunObserver",
    "Strategy",
    "STRATEGIES",
    "get_strategy",
    "PRESETS",
    "config_preset",
    "SBPConfig",
    "SBPResult",
    # Graphs and evaluation
    "Graph",
    "challenge_graph",
    "parameter_sweep_graph",
    "scaling_graph",
    "realworld_graph",
    "generate_dcsbm_graph",
    "DCSBMSpec",
    "normalized_mutual_information",
    "normalized_description_length",
    "__version__",
]
