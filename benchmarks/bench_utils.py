"""Shared helpers for the benchmark suite (imported by the test modules).

This lives outside ``conftest.py`` because test modules import it by module
name: bare ``conftest`` is ambiguous the moment another suite (``tests/``,
``tests/differential/``) has loaded its own ``conftest.py`` under that name
in a mixed-path pytest invocation.

Besides the single-round timing wrapper, :func:`run_once` is the hook that
wires **every** benchmark module into the experiment registry
(:mod:`repro.registry`): each invocation appends one schema-validated
``RunRecord`` to ``results/registry/<experiment>.jsonl`` and mirrors the same
fields into ``benchmark.extra_info``, so the pytest-benchmark JSON and the
registry always carry identical timings.  Individual benchmark modules need
no edits — the experiment name derives from the module file name
(``test_fig4_strong_scaling.py`` → ``fig4_strong_scaling``), and the sizing
mode / config / seed are picked up from the ``ExperimentSettings`` argument
when the benchmark passes one.

Set ``REPRO_REGISTRY=0`` to skip the registry append (the extra_info mirror
is still populated); ``REPRO_REGISTRY_DIR`` / ``REPRO_RESULTS_DIR`` relocate
the registry.
"""

from __future__ import annotations

import os
import time
import warnings
from pathlib import PurePosixPath
from typing import Dict, Optional

from repro.core.config import PRESETS, SBPConfig
from repro.harness.settings import ExperimentSettings
from repro.registry import (
    RunRecord,
    append_run,
    collect_provenance,
    drain_phase_log,
    peak_rss_mb,
    reset_phase_log,
)

#: Env var that disables the registry append (any of 0/false/off/no).
REGISTRY_TOGGLE_ENV = "REPRO_REGISTRY"
_FALSEY = ("0", "false", "off", "no")


def _registry_enabled() -> bool:
    return os.environ.get(REGISTRY_TOGGLE_ENV, "1").strip().lower() not in _FALSEY


def _experiment_name(benchmark) -> str:
    """Derive the registry key from the benchmark's module file name.

    ``benchmarks/test_fig4_strong_scaling.py::test_fig4_edist_strong_scaling``
    → ``fig4_strong_scaling`` — the same stem the module's ``results/``
    artifacts use, so registry history and CSV/JSON outputs line up.
    """
    fullname = getattr(benchmark, "fullname", "") or ""
    module_path = fullname.split("::", 1)[0]
    stem = PurePosixPath(module_path.replace("\\", "/")).name
    if stem.endswith(".py"):
        stem = stem[:-3]
    if stem.startswith("test_"):
        stem = stem[len("test_"):]
    return stem or getattr(benchmark, "name", "unknown_experiment")


def _find_settings(args, kwargs) -> Optional[ExperimentSettings]:
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, ExperimentSettings):
            return value
    return None


def _preset_name(config: SBPConfig) -> Optional[str]:
    """The preset this config equals, if any (frozen-dataclass eq)."""
    for name, make_config in PRESETS.items():
        if make_config() == config:
            return name
    return None


def _harvest_phase_seconds(result) -> Dict[str, float]:
    """Sum ``seconds_<phase>`` columns across any row dicts in ``result``.

    This is the fallback phase source for workloads that don't dispatch
    through the harness: any ``seconds_*`` columns the returned rows carry
    (the convention ``SBPResult.summary`` uses) are aggregated per phase.
    Harness-driven benchmarks get their breakdown from the registry phase
    log instead (see :func:`run_once`).
    """
    rows = []
    if isinstance(result, (list, tuple)):
        for item in result:
            if isinstance(item, dict):
                rows.append(item)
            elif isinstance(item, (list, tuple)):
                rows.extend(r for r in item if isinstance(r, dict))
    totals: Dict[str, float] = {}
    for row in rows:
        for key, value in row.items():
            if not (isinstance(key, str) and key.startswith("seconds_")):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            phase = key[len("seconds_"):]
            totals[phase] = totals.get(phase, 0.0) + float(value)
    return totals


def _build_record(
    benchmark, result, args, kwargs, wall_seconds: float, executed_phases: Optional[Dict[str, float]] = None
) -> RunRecord:
    settings = _find_settings(args, kwargs)
    config: Optional[SBPConfig] = settings.config if settings is not None else None
    mode = settings.mode if settings is not None else os.environ.get("REPRO_BENCH_MODE", "quick").lower()
    seed = settings.seed if settings is not None else (config.seed if config is not None else None)
    provenance = collect_provenance()
    return RunRecord(
        experiment=_experiment_name(benchmark),
        mode=mode or "quick",
        wall_seconds=wall_seconds,
        config=config.to_dict() if config is not None else {},
        preset=_preset_name(config) if config is not None else None,
        seed=seed,
        strategy=kwargs.get("strategy") if isinstance(kwargs.get("strategy"), str) else None,
        backend=config.matrix_backend if config is not None else None,
        transport=config.transport if config is not None else None,
        git_rev=provenance["git_rev"],
        git_dirty=provenance["git_dirty"],
        hostname=provenance["hostname"],
        phase_seconds=executed_phases or _harvest_phase_seconds(result),
        peak_rss_mb=peak_rss_mb(),
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are far too slow for statistical repetition; a single
    round still records the wall-clock in the benchmark report.  The round's
    measured time is then recorded as a ``RunRecord`` in the experiment
    registry AND mirrored into ``benchmark.extra_info["run_record"]`` — both
    taken from the *same* pytest-benchmark measurement, so the two reports
    cannot disagree.

    Per-phase timings come from the registry phase log: ``run_algorithm``
    reports every fresh ``SBPResult.phase_seconds`` executed inside the
    measured call, so harness-driven benchmarks get a real breakdown.
    Workloads that bypass the harness fall back to summing any ``seconds_*``
    columns in the returned rows; micro-benchmarks with neither record an
    empty breakdown.
    """
    reset_phase_log()
    start = time.perf_counter()
    try:
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
    finally:
        executed_phases = drain_phase_log()
    fallback_wall = time.perf_counter() - start

    stats = getattr(benchmark, "stats", None)
    # The single round's measurement (min == max at rounds=1); fall back to
    # our own timer when the benchmark machinery is disabled.
    wall_seconds = stats.stats.min if stats is not None else fallback_wall

    try:
        record = _build_record(benchmark, result, args, kwargs, wall_seconds, executed_phases)
    except ValueError as exc:
        # Schema violations are bugs in the wiring, not in the benchmark —
        # surface them with the registry context attached.
        raise ValueError(f"benchmark registry record for {benchmark.fullname!r} is invalid: {exc}") from exc

    benchmark.extra_info["run_record"] = record.to_dict()
    if _registry_enabled():
        try:
            path = append_run(record)
        except OSError as exc:  # pragma: no cover - unwritable results dir
            warnings.warn(f"experiment registry append failed ({exc}); run not recorded")
        else:
            benchmark.extra_info["registry_path"] = str(path)
    return result
