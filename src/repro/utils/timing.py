"""Wall-clock and per-phase timing helpers used by the experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager

__all__ = ["Timer", "PhaseTimer"]


@dataclass
class Timer:
    """A simple start/stop wall-clock timer.

    ``elapsed`` accumulates across multiple start/stop cycles, which is how
    the SBP driver charges time to the block-merge and MCMC phases
    separately.
    """

    elapsed: float = 0.0
    _started_at: Optional[float] = field(default=None, repr=False)

    def start(self) -> "Timer":
        if self._started_at is not None:
            raise RuntimeError("Timer already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("Timer is not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed

    @property
    def running(self) -> bool:
        return self._started_at is not None

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        self.start()
        try:
            yield self
        finally:
            self.stop()


class PhaseTimer:
    """Accumulates elapsed time under named phases.

    Used to split SBP runtime into ``block_merge``, ``mcmc``,
    ``communication`` and ``finetune`` buckets so that the runtime model and
    the benchmark harness can report a breakdown comparable to the paper's
    discussion (e.g. DC-SBP's single-node fine-tuning bottleneck).

    :meth:`measure` also charges each phase the calling thread's CPU time
    (``time.thread_time``), read with :meth:`cpu_as_dict`.  The runtime
    model bills a simulated rank's compute in that clock: ranks of the
    ``"threads"`` transport share one interpreter, so a rank's wall clock
    also counts the time its peers held the GIL.
    """

    def __init__(self) -> None:
        self._timers: Dict[str, Timer] = {}
        self._cpu: Dict[str, float] = {}

    def timer(self, phase: str) -> Timer:
        if phase not in self._timers:
            self._timers[phase] = Timer()
        return self._timers[phase]

    @contextmanager
    def measure(self, phase: str) -> Iterator[Timer]:
        cpu_start = time.thread_time()
        try:
            with self.timer(phase).measure() as t:
                yield t
        finally:
            self._cpu[phase] = self._cpu.get(phase, 0.0) + time.thread_time() - cpu_start

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` to ``phase`` without running a timer."""
        self.timer(phase).elapsed += float(seconds)

    def elapsed(self, phase: str) -> float:
        return self._timers[phase].elapsed if phase in self._timers else 0.0

    def total(self) -> float:
        return sum(t.elapsed for t in self._timers.values())

    def as_dict(self) -> Dict[str, float]:
        return {name: t.elapsed for name, t in sorted(self._timers.items())}

    def cpu_as_dict(self) -> Dict[str, float]:
        """Thread CPU seconds per phase, for the phases run under :meth:`measure`."""
        return dict(sorted(self._cpu.items()))

    def merge(self, other: "PhaseTimer") -> "PhaseTimer":
        """Accumulate another PhaseTimer's buckets into this one (in place)."""
        for name, t in other._timers.items():
            self.add(name, t.elapsed)
        for name, seconds in other._cpu.items():
            self._cpu[name] = self._cpu.get(name, 0.0) + seconds
        return self
