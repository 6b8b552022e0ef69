"""Launch a rank function across simulated MPI ranks.

:func:`run_distributed` is the in-process equivalent of ``mpiexec -n N``:
it resolves a :class:`~repro.mpi.transport.Transport` by name,
hands each rank a :class:`~repro.mpi.communicator.Communicator`, runs the
supplied function on every rank, and returns the per-rank results.

``DistributedResult`` and ``DistributedError`` are re-exported here for
backwards compatibility; they live in :mod:`repro.mpi.transport`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from repro.mpi.transport import DistributedError, DistributedResult, Transport

# ``repro.core.config`` imports this package to build its TRANSPORTS table,
# so bind the module and read its names at call time.
from repro.core import config

__all__ = ["run_distributed", "DistributedResult", "DistributedError"]


def run_distributed(
    num_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    transport: Optional[Union[str, Transport]] = None,
    timeout: Optional[float] = None,
    **kwargs: Any,
) -> DistributedResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``num_ranks`` simulated ranks.

    Parameters
    ----------
    num_ranks:
        Number of simulated MPI ranks.  ``1`` always runs on the calling
        thread (the ``"self"`` transport), whatever ``transport`` says —
        single-rank runs never pay for threads or processes.
    fn:
        The rank program.  Its first positional argument is the rank's
        :class:`~repro.mpi.communicator.Communicator`.
    transport:
        A :data:`~repro.core.config.TRANSPORTS` name (``"threads"``,
        ``"processes"``, …) or a :class:`~repro.mpi.transport.Transport`
        instance; ``None`` selects
        :data:`~repro.core.config.DEFAULT_TRANSPORT`.  Unknown names raise a
        :class:`ValueError` listing the valid ones.
    timeout:
        Per-collective/receive timeout in seconds (guards against
        deadlocks caused by mismatched collective sequences); a rank that
        trips it fails with an error naming the collective and its
        sequence number.  ``None`` selects
        :data:`~repro.mpi.transport.DEFAULT_TIMEOUT`.

    Returns
    -------
    DistributedResult
        Per-rank return values (rank-indexed) plus per-rank communication
        statistics.

    Raises
    ------
    DistributedError
        If any rank raises on a multi-rank run; the error aggregates every
        rank's exception and formatted traceback.  Single-rank runs
        propagate the exception raw.
    """
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    # Validate the requested transport even when the single-rank shortcut
    # makes it moot, so a typo fails loudly at every rank count.
    selected = config.get_transport(config.DEFAULT_TRANSPORT if transport is None else transport)
    if num_ranks == 1:
        selected = config.get_transport("self")
    return selected.launch(num_ranks, fn, args, kwargs, timeout=timeout)
