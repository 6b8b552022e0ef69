"""The transport protocol behind :func:`run_distributed`.

A *transport* decides where the simulated MPI ranks physically run — on the
calling thread (``"self"``), on Python threads inside this process
(``"threads"``), or on real operating-system processes (``"processes"``).
Every transport hands each rank a :class:`~repro.mpi.communicator.Communicator`
honouring the same sequenced-collective contract, so the rank programs (and
their results, under a fixed seed) are transport-independent; only the
execution substrate changes.

The transports are :class:`SelfTransport` here, ``ThreadTransport`` in
:mod:`repro.mpi.threaded` and ``ProcessTransport`` in
:mod:`repro.mpi.processes`; :data:`repro.core.config.TRANSPORTS` maps their
names to shared instances.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.mpi.communicator import SelfCommunicator
from repro.mpi.stats import CommStats

__all__ = [
    "DEFAULT_TIMEOUT",
    "DistributedError",
    "DistributedResult",
    "Transport",
    "SelfTransport",
    "primary_failures",
]

#: Default per-collective/receive timeout (seconds).  Generous enough for
#: any legitimate phase, small enough that a mismatched collective sequence
#: fails a test run instead of hanging it.  Override per run with
#: ``run_distributed(..., timeout=...)``.
DEFAULT_TIMEOUT = 300.0


class DistributedError(RuntimeError):
    """Raised when one or more ranks fail; carries all per-rank exceptions.

    ``failures`` maps rank → the exception object.  ``tracebacks`` maps
    rank → the traceback *formatted where the exception was raised* — on
    the rank's thread, or inside the worker process.  The string is the
    only faithful record across a process boundary (traceback objects do
    not pickle), and even in-process the re-raised aggregate would
    otherwise reduce each rank's failure to ``type: message``.  The
    formatted blocks are appended to the error message so a failing rank's
    stack shows up directly in test output.
    """

    def __init__(
        self,
        failures: Dict[int, BaseException],
        tracebacks: Optional[Dict[int, str]] = None,
    ) -> None:
        self.failures = failures
        self.tracebacks = {r: tb for r, tb in (tracebacks or {}).items() if tb}
        summary = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(failures.items())
        )
        message = f"{len(failures)} rank(s) failed: {summary}"
        blocks = "".join(
            f"\n--- rank {rank} traceback ---\n{tb.rstrip()}"
            for rank, tb in sorted(self.tracebacks.items())
            if rank in failures
        )
        super().__init__(message + blocks)


@dataclass
class DistributedResult:
    """Results of a simulated distributed run."""

    num_ranks: int
    results: List[Any]
    comm_stats: List[CommStats] = field(default_factory=list)

    @property
    def root_result(self) -> Any:
        return self.results[0]

    def total_comm_stats(self) -> CommStats:
        return CommStats.aggregate(self.comm_stats)


def primary_failures(failures: Dict[int, BaseException]) -> Dict[int, BaseException]:
    """Drop failures that are mere echoes of another rank's abort.

    When one rank raises, the others are woken with a ``RuntimeError``
    mentioning the abort; reporting those secondaries would bury the real
    cause.  If *every* failure is an abort echo (shouldn't happen), keep
    them all rather than raising an empty error.
    """
    primary = {
        r: e
        for r, e in failures.items()
        if not isinstance(e, RuntimeError) or "aborted" not in str(e)
    }
    return primary or failures


class Transport(abc.ABC):
    """Abstract execution substrate for a distributed run.

    Implementations are stateless; one shared instance per
    :data:`~repro.core.config.TRANSPORTS` entry launches any number of runs.  ``launch`` must deliver the same
    semantics on every transport: rank-indexed results, per-rank
    :class:`~repro.mpi.stats.CommStats`, and a :class:`DistributedError`
    aggregating every rank's failure (with secondaries from the abort
    cascade filtered out via :func:`primary_failures`).
    """

    #: Name in :data:`repro.core.config.TRANSPORTS`.
    name: str = "abstract"

    @abc.abstractmethod
    def launch(
        self,
        num_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> DistributedResult:
        """Run ``fn(comm, *args, **kwargs)`` on ``num_ranks`` ranks.

        ``timeout`` is the per-collective/receive deadline in seconds
        (``None`` selects :data:`DEFAULT_TIMEOUT`); a rank that waits
        longer than this on a rendezvous fails with an error naming the
        collective and its sequence number.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# The trivial single-rank transport
# ----------------------------------------------------------------------
class SelfTransport(Transport):
    """Run the rank program directly on the calling thread (one rank).

    No concurrency machinery at all: the sequential baselines (and every
    ``num_ranks == 1`` launch, whatever transport was requested) go through
    here, so single-rank runs never pay for threads or processes.
    Exceptions propagate raw — with a single rank there is no aggregate to
    build and the caller's traceback is already intact.
    """

    name = "self"

    def launch(
        self,
        num_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> DistributedResult:
        if num_ranks != 1:
            raise ValueError("the 'self' transport runs exactly one rank")
        comm = SelfCommunicator()
        result = fn(comm, *args, **(dict(kwargs or {})))
        return DistributedResult(1, [result], [comm.stats])
