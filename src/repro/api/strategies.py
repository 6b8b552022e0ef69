"""The partitioning strategies: the paper's three algorithms plus the Table
VI reference implementation, named in :data:`STRATEGIES`.

A *strategy* is any object implementing the :class:`Strategy` protocol —
``run(graph, config, *, num_ranks, run_context) -> SBPResult``.  Each
built-in one is a thin adapter from that protocol onto a core driver, so the
drivers keep their precise internal signatures (initial blockmodels, rng
registries, algorithm labels) while the public surface stays uniform.  Under
a fixed seed a strategy's result is bit-identical to calling the underlying
driver directly — the adapters add no RNG draws and no algorithmic
behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Union, runtime_checkable

from repro.core.config import SBPConfig, lookup
from repro.core.context import RunContext
from repro.core.dcsbp import divide_and_conquer_sbp
from repro.core.edist import edist
from repro.core.reference import reference_dcsbp
from repro.core.results import SBPResult
from repro.core.sbp import stochastic_block_partition
from repro.graphs.graph import Graph

__all__ = [
    "Strategy",
    "STRATEGIES",
    "get_strategy",
    "SequentialStrategy",
    "DCSBPStrategy",
    "EDiStStrategy",
    "ReferenceDCSBPStrategy",
]


@runtime_checkable
class Strategy(Protocol):
    """What the facade requires of a partitioning strategy.

    ``name`` is its :data:`STRATEGIES` key; ``run`` executes one partition.
    Strategies must treat ``config`` as the complete parameterisation (no
    hidden state) so that runs are reproducible from ``(graph, config)``
    alone, and must honour the :class:`~repro.core.context.RunContext`
    contract: emit phase-boundary events and stop cooperatively.
    """

    name: str

    def run(
        self,
        graph: Graph,
        config: SBPConfig,
        *,
        num_ranks: int = 1,
        run_context: Optional[RunContext] = None,
    ) -> SBPResult: ...


class SequentialStrategy:
    """Sequential / shared-memory SBP (the paper's single-node baseline)."""

    name = "sequential"

    def run(
        self,
        graph: Graph,
        config: SBPConfig,
        *,
        num_ranks: int = 1,
        run_context: Optional[RunContext] = None,
    ) -> SBPResult:
        if num_ranks != 1:
            raise ValueError(
                f"the sequential strategy runs on one rank (got num_ranks={num_ranks}); "
                "use 'dcsbp' or 'edist' for distributed runs"
            )
        return stochastic_block_partition(graph, config, run_context=run_context)


class DCSBPStrategy:
    """Divide-and-conquer SBP (Uppal et al., paper Alg. 3) over simulated ranks."""

    name = "dcsbp"

    def run(
        self,
        graph: Graph,
        config: SBPConfig,
        *,
        num_ranks: int = 1,
        run_context: Optional[RunContext] = None,
    ) -> SBPResult:
        return divide_and_conquer_sbp(graph, num_ranks, config, run_context=run_context)


class EDiStStrategy:
    """EDiSt — exact distributed SBP (the paper's contribution, Algs. 4-5)."""

    name = "edist"

    def run(
        self,
        graph: Graph,
        config: SBPConfig,
        *,
        num_ranks: int = 1,
        run_context: Optional[RunContext] = None,
    ) -> SBPResult:
        return edist(graph, num_ranks, config, run_context=run_context)


class ReferenceDCSBPStrategy:
    """DC-SBP with the unoptimised batch-parallel MCMC (paper Table VI)."""

    name = "reference_dcsbp"

    def run(
        self,
        graph: Graph,
        config: SBPConfig,
        *,
        num_ranks: int = 1,
        run_context: Optional[RunContext] = None,
    ) -> SBPResult:
        return reference_dcsbp(graph, num_ranks, config, run_context=run_context)


#: Strategy name → its stateless instance.
STRATEGIES: Dict[str, Strategy] = {
    strategy.name: strategy
    for strategy in (
        SequentialStrategy(),
        DCSBPStrategy(),
        EDiStStrategy(),
        ReferenceDCSBPStrategy(),
    )
}


def get_strategy(name: Union[str, Strategy]) -> Strategy:
    """The :data:`STRATEGIES` entry of a name; a :class:`Strategy` passes through."""
    if isinstance(name, Strategy):
        return name
    if not isinstance(name, str):
        raise TypeError(f"strategy must be a name or Strategy instance, got {type(name).__name__}")
    return lookup("strategy", STRATEGIES, name)
