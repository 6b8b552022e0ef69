"""repro.registry — the append-only experiment run registry.

Every benchmark invocation appends one schema-validated
:class:`~repro.registry.record.RunRecord` (config, preset, seed, git rev +
dirty flag, hostname, per-phase timings, peak RSS, wall-clock) to
``results/registry/<experiment>.jsonl``; nothing is ever overwritten, so the
performance trajectory of the codebase stays auditable across PRs.

Layers:

* :mod:`repro.registry.record`      — the validated ``RunRecord`` schema;
* :mod:`repro.registry.provenance`  — git rev / dirty flag / hostname / RSS;
* :mod:`repro.registry.store`       — JSONL append / read-back / summaries;
* :mod:`repro.registry.phases`      — per-phase timing collector fed by the
  harness's ``run_algorithm`` during a measured benchmark call.

The whole package is stdlib-only, so tooling can read registry history
without the numeric stack.  The registry records runs for observability;
parent-vs-change performance comparison lives in ``bench/compare.py``.
"""

from repro.registry.record import SCHEMA_VERSION, RunRecord, utc_timestamp
from repro.registry.phases import drain_phase_log, record_phases, reset_phase_log
from repro.registry.provenance import collect_provenance, git_revision, peak_rss_mb
from repro.registry.store import (
    append_run,
    config_fingerprint,
    latest_run,
    read_runs,
    registry_dir,
    run_path,
    summarize,
)

__all__ = [
    "RunRecord",
    "SCHEMA_VERSION",
    "utc_timestamp",
    "collect_provenance",
    "git_revision",
    "peak_rss_mb",
    "reset_phase_log",
    "drain_phase_log",
    "record_phases",
    "append_run",
    "read_runs",
    "latest_run",
    "summarize",
    "config_fingerprint",
    "registry_dir",
    "run_path",
]
