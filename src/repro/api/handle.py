"""RunHandle: lifecycle control around one partitioning run.

A handle owns the :class:`~repro.core.context.RunContext` for a single run,
so callers can attach observers, impose a wall-clock timeout, and cancel
cooperatively — from an observer callback or from another thread — and then
inspect how the run ended.  The run itself executes synchronously in
:meth:`RunHandle.run` (the simulated-MPI strategies already manage their own
worker threads); the handle's value is that the *control* surface exists
before and during execution, which no bare driver call offered.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.api.strategies import Strategy
from repro.core.config import SBPConfig
from repro.core.context import RunContext, RunObserver
from repro.core.results import SBPResult
from repro.graphs.graph import Graph

__all__ = ["RunHandle"]


class RunHandle:
    """One submitted partitioning run and its lifecycle state.

    Created by :meth:`repro.api.facade.Partitioner.submit`; states progress
    ``pending → running → completed | cancelled | timeout | failed``.
    """

    def __init__(
        self,
        strategy: Strategy,
        graph: Graph,
        config: SBPConfig,
        num_ranks: int = 1,
        observers: Iterable[RunObserver] = (),
        timeout: Optional[float] = None,
    ) -> None:
        self.strategy = strategy
        self.graph = graph
        self.config = config
        self.num_ranks = int(num_ranks)
        self.context = RunContext(observers=observers, timeout=timeout)
        # The handle can cancel the run from outside at any time, so the
        # distributed strategies must keep their stop-decision exchanges on.
        self.context.mark_controllable()
        self._status = "pending"
        self._result: Optional[SBPResult] = None
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        return self._status

    @property
    def done(self) -> bool:
        return self._status not in ("pending", "running")

    def add_observer(self, observer: RunObserver) -> "RunHandle":
        """Attach another observer; only meaningful before :meth:`run`."""
        self.context.observers.append(observer)
        return self

    def cancel(self) -> None:
        """Request a cooperative stop; safe from observers or other threads.

        A running handle winds down at the next phase boundary and still
        produces a well-formed partial result.  A ``pending`` handle — one
        whose :meth:`run` was never invoked — transitions to the terminal
        ``cancelled`` state *immediately*, so queue-time cancellation is
        well-defined for schedulers holding submitted-but-unstarted handles;
        :meth:`result` then lazily builds the degenerate (one block per
        vertex) partial result if anyone asks for it.
        """
        with self._lock:
            if self._status == "pending":
                self._status = "cancelled"
        self.context.cancel()

    # ------------------------------------------------------------------
    def run(self) -> SBPResult:
        """Execute the run synchronously and return its result.

        Idempotent: a second call returns the stored result (or re-raises
        the stored failure) instead of re-running.
        """
        with self._lock:
            if self._status == "running":
                raise RuntimeError("run already in progress")
            if self._error is not None:
                raise self._error
            if self._result is not None:
                return self._result
            # A handle cancelled while still queued stays terminally
            # "cancelled"; executing the strategy against the already-stopped
            # context merely materialises the degenerate partial result.
            cancelled_in_queue = self._status == "cancelled"
            if not cancelled_in_queue:
                self._status = "running"
        try:
            result = self.strategy.run(
                self.graph,
                self.config,
                num_ranks=self.num_ranks,
                run_context=self.context,
            )
        except BaseException as exc:
            self._error = exc
            self._status = "failed"
            raise
        self._result = result
        if not cancelled_in_queue:
            # Custom cancel reasons (RunContext.cancel("budget-exceeded")) map
            # to the "cancelled" state so the state machine stays closed; the
            # exact reason remains available as handle.context.stop_reason and
            # in result.metadata["stopped"].
            reason = self.context.stop_reason
            if reason is None:
                self._status = "completed"
            elif reason == "timeout":
                self._status = "timeout"
            else:
                self._status = "cancelled"
        return result

    def result(self) -> SBPResult:
        """The run's result, executing the run first if still pending.

        A handle cancelled before it ever ran also resolves here: the
        degenerate partial result is built on first request.
        """
        if self._status == "pending" or (self._status == "cancelled" and self._result is None):
            return self.run()
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise RuntimeError("run is still in progress")
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunHandle(strategy={self.strategy.name!r}, graph={self.graph.name!r}, "
            f"num_ranks={self.num_ranks}, status={self._status!r})"
        )
