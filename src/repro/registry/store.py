"""Append-only JSONL storage for experiment runs.

One file per experiment — ``<registry dir>/<experiment>.jsonl`` — with one
:class:`~repro.registry.record.RunRecord` per line.  Appends are single
``write()`` calls on a file opened in append mode, so interleaved writers
(parallel benchmark sessions, multiple ranks) cannot tear each other's lines
on POSIX filesystems; nothing is ever rewritten, so history accumulates and
"did PR N make this faster?" stays answerable.

The registry root is ``<results dir>/registry`` (``results/registry/`` by
default), overridable via ``REPRO_REGISTRY_DIR``; the results dir itself
honours ``REPRO_RESULTS_DIR`` like the rest of the harness.
"""

from __future__ import annotations

import json
import os
import statistics
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.registry.record import RunRecord

__all__ = [
    "registry_dir",
    "run_path",
    "append_run",
    "read_runs",
    "latest_run",
    "summarize",
    "config_fingerprint",
]

PathLike = Union[str, Path]

#: Environment knobs (documented in the README's registry section).
REGISTRY_DIR_ENV = "REPRO_REGISTRY_DIR"
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"


def registry_dir() -> Path:
    """The registry root: ``$REPRO_REGISTRY_DIR`` or ``<results>/registry``."""
    override = os.environ.get(REGISTRY_DIR_ENV)
    if override:
        return Path(override)
    return Path(os.environ.get(RESULTS_DIR_ENV, "results")) / "registry"


def run_path(experiment: str, directory: Optional[PathLike] = None) -> Path:
    """The JSONL file holding ``experiment``'s run history."""
    return Path(directory) / f"{experiment}.jsonl" if directory else registry_dir() / f"{experiment}.jsonl"


def append_run(record: RunRecord, directory: Optional[PathLike] = None) -> Path:
    """Append one record to its experiment's JSONL file and return the path.

    The serialized line is written with a single ``write()`` call so records
    from interleaved writers land whole.
    """
    path = run_path(record.experiment, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return path


def read_runs(
    experiment: str,
    directory: Optional[PathLike] = None,
    mode: Optional[str] = None,
) -> List[RunRecord]:
    """Every recorded run of ``experiment``, in append order.

    ``mode`` filters to one sizing preset (e.g. ``"smoke"``).  A malformed
    line raises a :class:`ValueError` naming the file and line number — a
    corrupt registry should be noticed, not silently skipped.
    """
    path = run_path(experiment, directory)
    if not path.exists():
        return []
    records: List[RunRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid registry line: {exc}") from exc
    if mode is not None:
        records = [r for r in records if r.mode == mode]
    return records


def latest_run(
    experiment: str,
    directory: Optional[PathLike] = None,
    mode: Optional[str] = None,
) -> Optional[RunRecord]:
    """The most recently appended run of ``experiment`` (``None`` if none)."""
    records = read_runs(experiment, directory=directory, mode=mode)
    return records[-1] if records else None


def config_fingerprint(record: RunRecord) -> str:
    """A stable hash of everything that makes runs comparable.

    Two runs share a fingerprint exactly when they measured the same thing:
    same sizing mode, algorithm config, strategy, backend, and transport.
    Provenance (rev, host, time) and the seed are deliberately excluded —
    they vary across comparable runs.
    """
    key = {
        "mode": record.mode,
        "config": record.config,
        "strategy": record.strategy,
        "backend": record.backend,
        "transport": record.transport,
    }
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"), default=str)
    return sha256(blob.encode("utf-8")).hexdigest()[:16]


def summarize(
    experiment: str,
    directory: Optional[PathLike] = None,
    mode: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Aggregate ``experiment``'s history per comparable configuration.

    Returns one row per :func:`config_fingerprint` group (insertion order),
    with the run count and the median / min / latest wall-clock — median for
    the central tendency, min as the noise-floor estimate.
    """
    groups: Dict[str, List[RunRecord]] = {}
    for record in read_runs(experiment, directory=directory, mode=mode):
        groups.setdefault(config_fingerprint(record), []).append(record)
    rows: List[Dict[str, object]] = []
    for fingerprint, records in groups.items():
        walls = [float(r.wall_seconds) for r in records]
        latest = records[-1]
        rows.append(
            {
                "experiment": experiment,
                "fingerprint": fingerprint,
                "mode": latest.mode,
                "strategy": latest.strategy,
                "backend": latest.backend,
                "transport": latest.transport,
                "runs": len(records),
                "wall_seconds_median": statistics.median(walls),
                "wall_seconds_min": min(walls),
                "wall_seconds_latest": walls[-1],
                "first_timestamp": records[0].timestamp,
                "latest_timestamp": latest.timestamp,
                "latest_git_rev": latest.git_rev,
            }
        )
    return rows
