"""repro.api — the unified public API for every partitioning strategy.

The stable surface downstream callers (the harness, benchmarks, examples,
and future serving layers) program against:

* :func:`partition` / :class:`Partitioner` — one entry point dispatching
  on a strategy name;
* :data:`STRATEGIES` / :func:`get_strategy` — the strategy names and their
  lookup;
* :class:`RunHandle`, :class:`RunObserver`, :class:`RunContext` and the
  event types — the run-lifecycle layer (observer callbacks, wall-clock
  timeouts, cooperative cancellation);
* config presets (:data:`PRESETS`, :func:`config_preset`) and the
  serializable :class:`SBPConfig` / :class:`SBPResult` pair;
* run metadata (:mod:`repro.registry`): the schema-validated
  :class:`RunRecord` every benchmark appends to the experiment registry,
  :func:`collect_provenance` (git rev + dirty flag + hostname) and the
  registry read-back / aggregation surface (:func:`read_runs`,
  :func:`latest_run`, :func:`summarize`).
"""

from repro.api.strategies import STRATEGIES, Strategy, get_strategy
from repro.api.handle import RunHandle
from repro.api.facade import ConfigLike, Partitioner, partition, resolve_config
from repro.core.config import PRESETS, SBPConfig, config_preset
from repro.core.context import (
    CycleEvent,
    MCMCSweepEvent,
    MergePhaseEvent,
    RunCancelled,
    RunContext,
    RunObserver,
)
from repro.core.results import SBPResult
from repro.registry import (
    RunRecord,
    append_run,
    collect_provenance,
    latest_run,
    read_runs,
    registry_dir,
    summarize,
)

__all__ = [
    "partition",
    "Partitioner",
    "RunHandle",
    "Strategy",
    "STRATEGIES",
    "get_strategy",
    "resolve_config",
    "ConfigLike",
    "SBPConfig",
    "SBPResult",
    "PRESETS",
    "config_preset",
    "RunContext",
    "RunObserver",
    "RunCancelled",
    "CycleEvent",
    "MergePhaseEvent",
    "MCMCSweepEvent",
    "RunRecord",
    "append_run",
    "read_runs",
    "latest_run",
    "summarize",
    "registry_dir",
    "collect_provenance",
    "Job",
    "JobState",
    "JobExecutor",
    "ProgressSnapshot",
    "ProgressTracker",
    "CheckpointWriter",
    "load_checkpoint",
    "resume_strategy",
    "PartitionService",
    "create_server",
    "service_metrics",
]

# The serving layer builds ON this package (it imports the facade, handle,
# and strategies submodules directly), so its client-facing types are pulled
# in at the very end — after everything it depends on exists — to keep the
# import acyclic.
from repro.service import (  # noqa: E402
    CheckpointWriter,
    Job,
    JobExecutor,
    JobState,
    PartitionService,
    ProgressSnapshot,
    ProgressTracker,
    create_server,
    load_checkpoint,
    resume_strategy,
    service_metrics,
)
