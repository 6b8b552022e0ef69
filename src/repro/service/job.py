"""The job model: one partitioning run moving through a validated state machine.

A :class:`Job` is the serving layer's unit of work — a graph, a strategy,
a config, and a priority, submitted by a client and executed asynchronously
by the :class:`~repro.service.executor.JobExecutor`.  Its lifecycle is the
closed state machine

    queued → running → succeeded | failed | cancelled | timeout
    queued → cancelled                      (queue-time cancellation)

enforced by :meth:`Job.advance`: an illegal transition raises a
:class:`ValueError` naming both states, matching the construction-time
validation convention the config/registry layers established.  Terminal
states are absorbing.

Jobs carry full provenance — the serialized config, the preset it matches,
the seed, and submit/start/finish timestamps — so a finished job can be
audited (and recorded into the experiment registry) without re-deriving
anything from the request.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import SBPConfig
from repro.core.results import SBPResult
from repro.graphs.graph import Graph

__all__ = ["JobState", "Job", "new_job_id"]


class JobState:
    """Names of the job lifecycle states."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    ALL = (QUEUED, RUNNING, SUCCEEDED, FAILED, CANCELLED, TIMEOUT)
    TERMINAL = (SUCCEEDED, FAILED, CANCELLED, TIMEOUT)


#: Every legal edge of the state machine; everything else raises.
_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    JobState.QUEUED: (JobState.RUNNING, JobState.CANCELLED),
    JobState.RUNNING: (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT),
    JobState.SUCCEEDED: (),
    JobState.FAILED: (),
    JobState.CANCELLED: (),
    JobState.TIMEOUT: (),
}


def new_job_id() -> str:
    """A fresh server-generated job id (hex UUID4)."""
    return uuid.uuid4().hex


@dataclass
class Job:
    """One submitted partitioning run and everything known about it.

    Attributes
    ----------
    job_id:
        Client-supplied or server-generated identifier; unique per executor.
    graph:
        The graph to partition (already materialised at submit time).
    config:
        The resolved :class:`SBPConfig` the run will use.
    strategy:
        :data:`~repro.api.strategies.STRATEGIES` name of the partitioning strategy.
    num_ranks:
        Simulated MPI ranks for the distributed strategies.
    priority:
        Higher-priority jobs leave the queue first; ties run in submit order.
    timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited); on
        expiry the run winds down and the job lands in ``timeout``.
    checkpoint_every:
        Write a partial-result checkpoint every N agglomerative cycles
        (0 disables checkpointing).
    preset:
        Name of the registered config preset the config matches, when known.
    state:
        Current lifecycle state (see :class:`JobState`).
    submitted_at / started_at / finished_at:
        Unix timestamps of the lifecycle edges (``None`` until reached).
    error:
        Stringified exception for ``failed`` jobs.
    """

    job_id: str
    graph: Graph
    config: SBPConfig
    strategy: str = "sequential"
    num_ranks: int = 1
    priority: int = 0
    timeout: Optional[float] = None
    checkpoint_every: int = 0
    preset: Optional[str] = None
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[SBPResult] = None
    #: Path of the latest checkpoint written for this job, when any.
    checkpoint_path: Optional[str] = None
    #: Set when the job was warm-started from a checkpoint.
    resumed_from: Optional[str] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("Job field 'job_id': must be a non-empty string")
        if self.state not in JobState.ALL:
            raise ValueError(
                f"Job field 'state': unknown state {self.state!r}; expected one of {JobState.ALL}"
            )
        if self.num_ranks < 1:
            raise ValueError(f"Job field 'num_ranks': must be at least 1, got {self.num_ranks}")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"Job field 'timeout': must be non-negative, got {self.timeout}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"Job field 'checkpoint_every': must be non-negative, got {self.checkpoint_every}"
            )

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def latency_seconds(self) -> Optional[float]:
        """Wall-clock from start to finish; ``None`` until the job finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def advance(self, new_state: str) -> None:
        """Move to ``new_state``, enforcing the state machine.

        Illegal transitions raise a :class:`ValueError` naming both the
        current and the requested state.  Timestamps for the ``running`` and
        terminal edges are stamped here, so they cannot be forgotten.
        """
        if new_state not in JobState.ALL:
            raise ValueError(
                f"unknown job state {new_state!r}; expected one of {JobState.ALL}"
            )
        with self._lock:
            if new_state not in _TRANSITIONS[self.state]:
                raise ValueError(
                    f"illegal job transition {self.state!r} → {new_state!r} "
                    f"(job {self.job_id}); legal targets from {self.state!r}: "
                    f"{list(_TRANSITIONS[self.state])}"
                )
            self.state = new_state
            now = time.time()
            if new_state == JobState.RUNNING:
                self.started_at = now
            elif new_state in JobState.TERMINAL:
                self.finished_at = now

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready status view of the job (without the result payload)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "strategy": self.strategy,
            "num_ranks": int(self.num_ranks),
            "priority": int(self.priority),
            "graph": {
                "name": self.graph.name,
                "num_vertices": int(self.graph.num_vertices),
                "num_edges": int(self.graph.num_edges),
            },
            "config": self.config.to_dict(),
            "preset": self.preset,
            "seed": self.config.seed,
            "timeout": self.timeout,
            "checkpoint_every": int(self.checkpoint_every),
            "checkpoint_path": self.checkpoint_path,
            "resumed_from": self.resumed_from,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency_seconds": self.latency_seconds,
            "error": self.error,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(id={self.job_id!r}, state={self.state!r}, strategy={self.strategy!r}, "
            f"graph={self.graph.name!r}, priority={self.priority})"
        )
