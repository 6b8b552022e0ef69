"""Threaded multi-rank communicator and the ``"threads"`` transport.

Every simulated MPI rank runs on its own Python thread; the communicators
share a :class:`ThreadCommWorld` that implements rendezvous for the
collectives and mailboxes for point-to-point messages.

Collectives are sequenced: every rank's *n*-th collective call matches the
other ranks' *n*-th call, exactly like MPI, so algorithms must issue
collectives in the same order on every rank (the SBP algorithms do).  A
mismatch — e.g. one rank calling ``allgather`` while another calls
``barrier`` — raises instead of deadlocking.

The GIL means the threads do not provide real CPU parallelism; that is fine,
because this transport exists to exercise the *communication and
convergence* behaviour of the distributed algorithms.  For actual multi-core
execution use the ``"processes"`` transport
(:mod:`repro.mpi.processes`), which runs the same rank programs bit-for-bit
identically on one OS process per rank.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.mpi.communicator import ANY_SOURCE, SequencedCommunicator
from repro.mpi.transport import (
    DEFAULT_TIMEOUT,
    DistributedError,
    DistributedResult,
    Transport,
    primary_failures,
)

__all__ = ["ThreadCommWorld", "ThreadCommunicator", "ThreadTransport"]

#: Backwards-compatible alias; the canonical default lives in
#: :data:`repro.mpi.transport.DEFAULT_TIMEOUT` and is configurable per run
#: via ``run_distributed(..., timeout=...)``.
_DEFAULT_TIMEOUT = DEFAULT_TIMEOUT


class _Collective:
    """State for one in-flight collective call (identified by sequence no.)."""

    __slots__ = ("name", "slots", "arrived", "done", "consumed")

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.slots: List[Any] = [None] * size
        self.arrived = 0
        self.done = False
        self.consumed = 0


class ThreadCommWorld:
    """Shared state connecting the per-rank :class:`ThreadCommunicator`s."""

    def __init__(self, size: int, timeout: float = DEFAULT_TIMEOUT) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.timeout = timeout
        self._lock = threading.Condition()
        self._collectives: Dict[int, _Collective] = {}
        self._mailboxes: Dict[int, List[Tuple[int, int, Any]]] = {r: [] for r in range(size)}
        self._aborted: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def communicators(self) -> List["ThreadCommunicator"]:
        """Create one communicator per rank, all attached to this world."""
        return [ThreadCommunicator(rank, self) for rank in range(self.size)]

    def abort(self, exc: BaseException) -> None:
        """Wake every waiting rank with an error (used when a rank raises)."""
        with self._lock:
            if self._aborted is None:
                self._aborted = exc
            self._lock.notify_all()

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise RuntimeError(f"distributed run aborted: {self._aborted!r}") from self._aborted

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def exchange(self, seq: int, name: str, rank: int, value: Any) -> List[Any]:
        """Generic all-to-all rendezvous used to build every collective.

        Rank ``rank`` contributes ``value`` to collective number ``seq`` and
        receives the rank-indexed list of all contributions.
        """
        deadline = None
        with self._lock:
            self._check_abort()
            coll = self._collectives.get(seq)
            if coll is None:
                coll = _Collective(name, self.size)
                self._collectives[seq] = coll
            elif coll.name != name:
                exc = RuntimeError(
                    f"collective mismatch at step {seq}: rank {rank} called {name!r} "
                    f"but another rank called {coll.name!r}"
                )
                self._aborted = self._aborted or exc
                self._lock.notify_all()
                raise exc
            coll.slots[rank] = value
            coll.arrived += 1
            if coll.arrived == self.size:
                coll.done = True
                self._lock.notify_all()
            else:
                import time

                deadline = time.monotonic() + self.timeout
                while not coll.done:
                    self._check_abort()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        exc = RuntimeError(
                            f"collective {name!r} (step {seq}) timed out waiting for peers"
                        )
                        self._aborted = self._aborted or exc
                        self._lock.notify_all()
                        raise exc
                    self._lock.wait(timeout=min(remaining, 0.5))
            result = list(coll.slots)
            coll.consumed += 1
            if coll.consumed == self.size:
                # Everyone has read the result; free the slot.
                del self._collectives[seq]
            return result

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def put(self, dest: int, source: int, tag: int, payload: Any) -> None:
        with self._lock:
            self._check_abort()
            self._mailboxes[dest].append((source, tag, payload))
            self._lock.notify_all()

    def take(self, dest: int, source: int, tag: int) -> Any:
        import time

        deadline = time.monotonic() + self.timeout
        with self._lock:
            while True:
                self._check_abort()
                box = self._mailboxes[dest]
                for idx, (src, msg_tag, payload) in enumerate(box):
                    if (source == ANY_SOURCE or src == source) and msg_tag == tag:
                        box.pop(idx)
                        return payload
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    exc = RuntimeError(
                        f"recv on rank {dest} from {source} (tag {tag}) timed out"
                    )
                    self._aborted = self._aborted or exc
                    self._lock.notify_all()
                    raise exc
                self._lock.wait(timeout=min(remaining, 0.5))


class ThreadCommunicator(SequencedCommunicator):
    """Per-rank handle onto a :class:`ThreadCommWorld`.

    All collectives (and their statistics accounting) come from
    :class:`~repro.mpi.communicator.SequencedCommunicator`; this class only
    wires the exchange/mailbox primitives to the shared world.
    """

    def __init__(self, rank: int, world: ThreadCommWorld) -> None:
        super().__init__(rank, world.size)
        self._world = world

    def _exchange(self, seq: int, name: str, value: Any) -> List[Any]:
        return self._world.exchange(seq, name, self.rank, value)

    def _put(self, dest: int, tag: int, payload: Any) -> None:
        self._world.put(dest, self.rank, tag, payload)

    def _take(self, source: int, tag: int) -> Any:
        return self._world.take(self.rank, source, tag)


class ThreadTransport(Transport):
    """One daemon thread per rank inside the calling process.

    Zero startup cost and full visibility into shared objects (observers,
    run contexts, test fixtures are used directly), at the price of no CPU
    parallelism: the GIL serialises the compute phases.  The default
    transport, and the right one for tests and communication-semantics
    work.
    """

    name = "threads"

    def launch(
        self,
        num_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> DistributedResult:
        kwargs = dict(kwargs or {})
        world = ThreadCommWorld(num_ranks, timeout=DEFAULT_TIMEOUT if timeout is None else timeout)
        comms = world.communicators()
        results: List[Any] = [None] * num_ranks
        failures: Dict[int, BaseException] = {}
        tracebacks: Dict[int, str] = {}

        def _target(rank: int) -> None:
            try:
                results[rank] = fn(comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - propagate to the launcher
                failures[rank] = exc
                tracebacks[rank] = traceback.format_exc()
                world.abort(exc)

        threads = [
            threading.Thread(target=_target, args=(rank,), name=f"repro-rank-{rank}", daemon=True)
            for rank in range(num_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if failures:
            primary = primary_failures(failures)
            raise DistributedError(primary, {r: tracebacks.get(r, "") for r in primary})
        return DistributedResult(num_ranks, results, [c.stats for c in comms])
