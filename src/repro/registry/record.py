"""The :class:`RunRecord` schema — one validated row of the experiment registry.

Every benchmark invocation appends exactly one record to the append-only
registry (:mod:`repro.registry.store`).  The record captures everything needed
to audit a reproduction claim after the fact: the full algorithm configuration
(:meth:`repro.core.config.SBPConfig.to_dict`), the sizing preset and seed, the
exact code revision (git rev + dirty flag) and host, the per-phase timings the
run reported, peak RSS, and the benchmark's wall-clock.

Validation follows the construction-time convention established by
``SBPConfig`` and the backend/transport registries: every error names the
offending field, and :meth:`RunRecord.from_dict` rejects unknown *and* missing
fields rather than silently dropping or defaulting them, so stale or typo'd
registry lines surface immediately.

This module is deliberately stdlib-only so tooling can load registry history
without importing the numeric stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Dict, Optional

__all__ = ["RunRecord", "SCHEMA_VERSION", "utc_timestamp"]

#: Bumped whenever a field is added/removed/retyped; ``from_dict`` refuses
#: records written by a *newer* schema so old readers fail loudly.
SCHEMA_VERSION = 1

#: Experiment names double as registry file names (``<experiment>.jsonl``),
#: so they are restricted to a filesystem-safe alphabet.
_EXPERIMENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def utc_timestamp() -> str:
    """The current time as an ISO-8601 UTC string (registry convention)."""
    return datetime.now(timezone.utc).isoformat()


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ValueError(f"RunRecord field {field_name!r}: {message}")


def _check_optional_str(value, field_name: str) -> None:
    if value is None:
        return
    _require(isinstance(value, str), field_name, f"must be a string or None, got {type(value).__name__}")
    _require(bool(value), field_name, "must be non-empty when present (use None instead)")


def _check_finite_nonnegative(value, field_name: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        field_name,
        f"must be a number, got {type(value).__name__}",
    )
    _require(math.isfinite(float(value)), field_name, "must be finite")
    _require(float(value) >= 0.0, field_name, f"must be non-negative, got {value}")


@dataclass(frozen=True)
class RunRecord:
    """One schema-validated experiment run.

    Attributes
    ----------
    experiment:
        Registry key, e.g. ``"backend_throughput"``; also the registry file
        stem (``results/registry/<experiment>.jsonl``).
    mode:
        Benchmark sizing preset the run used (``"smoke"`` / ``"quick"`` /
        ``"full"`` — see :class:`repro.harness.settings.ExperimentSettings`).
    timestamp:
        ISO-8601 UTC time the record was created.
    config:
        JSON-ready algorithm configuration (``SBPConfig.to_dict()`` output,
        or ``{}`` for micro-benchmarks that build configs internally).
    preset:
        Name of the registered config preset the config matches, when known.
    seed:
        Root random seed of the run, when known.
    strategy / backend / transport:
        Registry names of the partitioning strategy, blockmodel storage
        backend, and rank transport, when known.
    git_rev / git_dirty:
        Code revision the run executed (``"unknown"`` outside a checkout)
        and whether the working tree had uncommitted changes.
    hostname:
        Machine the run executed on (timings are only comparable per host).
    phase_seconds:
        Per-phase wall-clock harvested from the run's
        :class:`~repro.core.results.SBPResult` summaries.
    peak_rss_mb:
        Peak resident set size of the process, in MiB.
    wall_seconds:
        The benchmark's wall-clock — identical to the timing pytest-benchmark
        records for the run, so the two reports always agree.
    schema_version:
        Schema revision that wrote the record.
    """

    experiment: str
    mode: str
    wall_seconds: float
    timestamp: str = field(default_factory=utc_timestamp)
    config: Dict[str, object] = field(default_factory=dict)
    preset: Optional[str] = None
    seed: Optional[int] = None
    strategy: Optional[str] = None
    backend: Optional[str] = None
    transport: Optional[str] = None
    git_rev: str = "unknown"
    git_dirty: bool = False
    hostname: str = "unknown"
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _require(isinstance(self.experiment, str), "experiment",
                 f"must be a string, got {type(self.experiment).__name__}")
        _require(bool(_EXPERIMENT_RE.match(self.experiment)), "experiment",
                 f"must match {_EXPERIMENT_RE.pattern} (it names the registry file), got {self.experiment!r}")
        _require(isinstance(self.mode, str) and bool(self.mode), "mode",
                 f"must be a non-empty string, got {self.mode!r}")
        _require(isinstance(self.timestamp, str), "timestamp",
                 f"must be an ISO-8601 string, got {type(self.timestamp).__name__}")
        try:
            datetime.fromisoformat(self.timestamp)
        except ValueError:
            raise ValueError(
                f"RunRecord field 'timestamp': must be ISO-8601, got {self.timestamp!r}"
            ) from None
        _require(isinstance(self.config, dict), "config",
                 f"must be a dict, got {type(self.config).__name__}")
        _require(all(isinstance(k, str) for k in self.config), "config",
                 "keys must all be strings")
        _check_optional_str(self.preset, "preset")
        if self.seed is not None:
            _require(isinstance(self.seed, int) and not isinstance(self.seed, bool), "seed",
                     f"must be an int or None, got {self.seed!r}")
        _check_optional_str(self.strategy, "strategy")
        _check_optional_str(self.backend, "backend")
        _check_optional_str(self.transport, "transport")
        _require(isinstance(self.git_rev, str) and bool(self.git_rev), "git_rev",
                 f"must be a non-empty string, got {self.git_rev!r}")
        _require(isinstance(self.git_dirty, bool), "git_dirty",
                 f"must be a bool, got {type(self.git_dirty).__name__}")
        _require(isinstance(self.hostname, str) and bool(self.hostname), "hostname",
                 f"must be a non-empty string, got {self.hostname!r}")
        _require(isinstance(self.phase_seconds, dict), "phase_seconds",
                 f"must be a dict, got {type(self.phase_seconds).__name__}")
        for key, value in self.phase_seconds.items():
            _require(isinstance(key, str) and bool(key), "phase_seconds",
                     f"keys must be non-empty strings, got {key!r}")
            _check_finite_nonnegative(value, f"phase_seconds[{key!r}]")
        _check_finite_nonnegative(self.peak_rss_mb, "peak_rss_mb")
        _check_finite_nonnegative(self.wall_seconds, "wall_seconds")
        _require(float(self.wall_seconds) > 0.0, "wall_seconds",
                 f"must be positive, got {self.wall_seconds}")
        _require(isinstance(self.schema_version, int) and not isinstance(self.schema_version, bool),
                 "schema_version", f"must be an int, got {self.schema_version!r}")
        _require(self.schema_version >= 1, "schema_version",
                 f"must be >= 1, got {self.schema_version}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict of every field; exact inverse of :meth:`from_dict`."""
        return {
            "schema_version": int(self.schema_version),
            "experiment": self.experiment,
            "mode": self.mode,
            "timestamp": self.timestamp,
            "config": dict(self.config),
            "preset": self.preset,
            "seed": self.seed,
            "strategy": self.strategy,
            "backend": self.backend,
            "transport": self.transport,
            "git_rev": self.git_rev,
            "git_dirty": self.git_dirty,
            "hostname": self.hostname,
            "phase_seconds": {str(k): float(v) for k, v in self.phase_seconds.items()},
            "peak_rss_mb": float(self.peak_rss_mb),
            "wall_seconds": float(self.wall_seconds),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Unknown *and* missing fields raise, naming the offending fields, so a
        registry line written by incompatible code cannot be half-parsed.
        """
        if not isinstance(data, dict):
            raise ValueError(f"RunRecord.from_dict expects a dict, got {type(data).__name__}")
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ValueError(
                f"unknown RunRecord field(s) {sorted(unknown)}; valid fields: {sorted(valid)}"
            )
        missing = valid - set(data)
        if missing:
            raise ValueError(
                f"missing RunRecord field(s) {sorted(missing)}; a registry line must carry the full schema"
            )
        version = data["schema_version"]
        if isinstance(version, int) and version > SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord field 'schema_version': record was written by schema "
                f"{version} but this reader only understands <= {SCHEMA_VERSION}"
            )
        return cls(**data)
