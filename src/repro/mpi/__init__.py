"""An in-process, MPI-style communication substrate with pluggable transports.

The paper's algorithms are written against MPI (mpi4py / C++ MPI).  Neither
an MPI runtime nor ``mpi4py`` is available in this environment, so this
package provides a drop-in substitute that preserves the *semantics* the
algorithms rely on — ranks, point-to-point messages, and the collectives
(``barrier``, ``bcast``, ``gather``, ``allgather``, ``alltoall``,
``allreduce``).

Where the ranks physically run is a *transport*, named in
:data:`repro.core.config.TRANSPORTS`:

* ``"self"`` — a single rank on the calling thread
  (:class:`~repro.mpi.communicator.SelfCommunicator`); the sequential
  baselines and every ``num_ranks == 1`` launch.
* ``"threads"`` — one Python thread per rank
  (:class:`~repro.mpi.threaded.ThreadCommunicator`); zero startup cost and
  shared objects, but the GIL serialises compute.  The default.
* ``"processes"`` — one OS process per rank
  (:class:`~repro.mpi.processes.ProcessCommunicator`); real CPU
  parallelism, graph arguments mapped once via
  ``multiprocessing.shared_memory``, lifecycle (observers/cancellation)
  bridged to the parent.

All multi-rank communicators share the sequenced-collective implementation
of :class:`~repro.mpi.communicator.SequencedCommunicator`, so under a fixed
seed the transports produce bit-identical results and identical
:class:`~repro.mpi.stats.CommStats` — the cross-transport differential
suite (``tests/differential/test_cross_transport.py``) holds them to it.

:func:`~repro.mpi.launcher.run_distributed` launches a rank function over
``n`` ranks on a chosen transport and returns the per-rank results,
propagating the first rank exception (and aborting the others) on failure.
Per-rank traffic statistics feed the harness's α-β communication cost
model.
"""

from repro.mpi.communicator import (
    Communicator,
    SelfCommunicator,
    SequencedCommunicator,
    ReduceOp,
)
from repro.mpi.stats import CommStats, CommEvent
from repro.mpi.transport import (
    DEFAULT_TIMEOUT,
    DistributedError,
    DistributedResult,
    SelfTransport,
    Transport,
)
from repro.mpi.threaded import ThreadCommunicator, ThreadCommWorld, ThreadTransport
from repro.mpi.processes import ProcessCommunicator, ProcessTransport
from repro.mpi.launcher import run_distributed

__all__ = [
    "Communicator",
    "SequencedCommunicator",
    "SelfCommunicator",
    "ThreadCommunicator",
    "ThreadCommWorld",
    "ProcessCommunicator",
    "ReduceOp",
    "CommStats",
    "CommEvent",
    "run_distributed",
    "DistributedError",
    "DistributedResult",
    "DEFAULT_TIMEOUT",
    "Transport",
    "SelfTransport",
    "ThreadTransport",
    "ProcessTransport",
]
