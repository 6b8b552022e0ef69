"""The experiment run registry: RunRecord schema + JSONL store.

Covers the satellite requirements of the registry PR: to_dict/from_dict
identity (hand-written cases plus an optional-skip hypothesis property, the
``tests/test_backend_properties.py`` convention), rejection of unknown and
missing fields with errors that *name* the field, and JSONL append/read-back
across interleaved writers.
"""

from __future__ import annotations

import importlib
import json
import threading

import pytest

from repro.core.config import SBPConfig
from repro.registry import (
    SCHEMA_VERSION,
    RunRecord,
    append_run,
    collect_provenance,
    config_fingerprint,
    latest_run,
    read_runs,
    run_path,
    summarize,
)


def make_record(**overrides) -> RunRecord:
    base = dict(
        experiment="backend_throughput",
        mode="smoke",
        wall_seconds=1.25,
        config=SBPConfig.fast(seed=7).to_dict(),
        preset="fast",
        seed=7,
        strategy="sequential",
        backend="csr",
        transport="threads",
        git_rev="deadbeef",
        git_dirty=False,
        hostname="testhost",
        phase_seconds={"block_merge": 0.5, "mcmc": 0.25},
        peak_rss_mb=128.5,
    )
    base.update(overrides)
    return RunRecord(**base)


# ----------------------------------------------------------------------
# Schema round-trip
# ----------------------------------------------------------------------
def test_to_dict_from_dict_identity():
    record = make_record()
    assert RunRecord.from_dict(record.to_dict()) == record


def test_to_dict_identity_with_optional_fields_none():
    record = make_record(preset=None, seed=None, strategy=None, backend=None, transport=None)
    assert RunRecord.from_dict(record.to_dict()) == record


def test_to_dict_is_json_serialisable():
    record = make_record()
    line = json.dumps(record.to_dict(), sort_keys=True)
    assert RunRecord.from_dict(json.loads(line)) == record


def test_to_dict_emits_every_field_and_schema_version():
    data = make_record().to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    # from_dict requires the full schema, so to_dict must emit it.
    assert RunRecord.from_dict(data) is not None


def test_to_dict_copies_are_independent():
    record = make_record()
    data = record.to_dict()
    data["config"]["seed"] = 999
    data["phase_seconds"]["mcmc"] = 99.0
    assert record.config["seed"] == 7
    assert record.phase_seconds["mcmc"] == 0.25


def test_default_timestamp_and_provenance_are_valid():
    # A record built the way bench_utils builds them must pass the schema.
    record = RunRecord(
        experiment="x", mode="quick", wall_seconds=0.1, **collect_provenance()
    )
    assert RunRecord.from_dict(record.to_dict()) == record


# ----------------------------------------------------------------------
# Rejection: unknown / missing fields, named in the error
# ----------------------------------------------------------------------
def test_from_dict_rejects_unknown_field_naming_it():
    data = make_record().to_dict()
    data["throughput"] = 3.0
    with pytest.raises(ValueError, match=r"unknown RunRecord field\(s\) \['throughput'\]"):
        RunRecord.from_dict(data)


def test_from_dict_rejects_missing_field_naming_it():
    data = make_record().to_dict()
    del data["git_rev"]
    with pytest.raises(ValueError, match=r"missing RunRecord field\(s\) \['git_rev'\]"):
        RunRecord.from_dict(data)


def test_from_dict_rejects_newer_schema_naming_the_field():
    data = make_record().to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        RunRecord.from_dict(data)


def test_from_dict_rejects_non_dict():
    with pytest.raises(ValueError, match="expects a dict"):
        RunRecord.from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "overrides, field_name",
    [
        ({"experiment": ""}, "experiment"),
        ({"experiment": "a/b"}, "experiment"),
        ({"experiment": 7}, "experiment"),
        ({"mode": ""}, "mode"),
        ({"timestamp": "yesterday-ish"}, "timestamp"),
        ({"config": ["not", "a", "dict"]}, "config"),
        ({"preset": ""}, "preset"),
        ({"seed": "abc"}, "seed"),
        ({"strategy": 3}, "strategy"),
        ({"backend": ""}, "backend"),
        ({"transport": 1.5}, "transport"),
        ({"git_rev": ""}, "git_rev"),
        ({"git_dirty": "yes"}, "git_dirty"),
        ({"hostname": ""}, "hostname"),
        ({"phase_seconds": {"mcmc": -1.0}}, "phase_seconds"),
        ({"phase_seconds": {"": 1.0}}, "phase_seconds"),
        ({"phase_seconds": {"mcmc": float("nan")}}, "phase_seconds"),
        ({"peak_rss_mb": -1.0}, "peak_rss_mb"),
        ({"peak_rss_mb": float("inf")}, "peak_rss_mb"),
        ({"wall_seconds": 0.0}, "wall_seconds"),
        ({"wall_seconds": -2.0}, "wall_seconds"),
        ({"wall_seconds": "fast"}, "wall_seconds"),
        ({"schema_version": 0}, "schema_version"),
    ],
)
def test_validation_errors_name_the_field(overrides, field_name):
    with pytest.raises(ValueError, match=field_name):
        make_record(**overrides)


# ----------------------------------------------------------------------
# JSONL store: append / read-back / interleaved writers
# ----------------------------------------------------------------------
def test_append_and_read_back_preserves_order_and_content(tmp_path):
    records = [make_record(seed=i, wall_seconds=1.0 + i) for i in range(5)]
    for record in records:
        append_run(record, tmp_path)
    assert read_runs("backend_throughput", tmp_path) == records


def test_read_runs_missing_file_is_empty(tmp_path):
    assert read_runs("never_ran", tmp_path) == []
    assert latest_run("never_ran", tmp_path) is None


def test_read_runs_mode_filter_and_latest(tmp_path):
    append_run(make_record(mode="quick", wall_seconds=9.0), tmp_path)
    append_run(make_record(mode="smoke", wall_seconds=1.0), tmp_path)
    append_run(make_record(mode="smoke", wall_seconds=2.0), tmp_path)
    smoke = read_runs("backend_throughput", tmp_path, mode="smoke")
    assert [r.wall_seconds for r in smoke] == [1.0, 2.0]
    assert latest_run("backend_throughput", tmp_path, mode="smoke").wall_seconds == 2.0
    assert latest_run("backend_throughput", tmp_path, mode="quick").wall_seconds == 9.0


def test_latest_run_is_the_last_appended_not_the_fastest(tmp_path):
    append_run(make_record(wall_seconds=1.0), tmp_path)
    append_run(make_record(wall_seconds=5.0), tmp_path)
    assert latest_run("backend_throughput", tmp_path).wall_seconds == 5.0


def test_registry_has_no_gate_module():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.registry.gate")


def test_read_runs_names_file_and_line_on_corruption(tmp_path):
    append_run(make_record(), tmp_path)
    path = run_path("backend_throughput", tmp_path)
    with open(path, "a") as fh:
        fh.write('{"not": "a run record"}\n')
    with pytest.raises(ValueError, match=rf"{path.name}:2"):
        read_runs("backend_throughput", tmp_path)


def test_append_interleaved_writers_round_trip(tmp_path):
    """Two writers alternating appends: the file carries both histories whole."""
    writer_a = [make_record(hostname="writer-a", seed=i, wall_seconds=1.0 + i) for i in range(4)]
    writer_b = [make_record(hostname="writer-b", seed=i, wall_seconds=2.0 + i) for i in range(4)]
    for a, b in zip(writer_a, writer_b):
        append_run(a, tmp_path)
        append_run(b, tmp_path)
    loaded = read_runs("backend_throughput", tmp_path)
    assert loaded[0::2] == writer_a
    assert loaded[1::2] == writer_b


def test_append_concurrent_threads_never_tear_lines(tmp_path):
    """Threaded writers: every line must parse and every record survive."""
    num_writers, per_writer = 4, 25

    def write(writer: int) -> None:
        for i in range(per_writer):
            append_run(make_record(hostname=f"w{writer}", seed=writer * per_writer + i), tmp_path)

    threads = [threading.Thread(target=write, args=(w,)) for w in range(num_writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loaded = read_runs("backend_throughput", tmp_path)  # raises on any torn line
    assert len(loaded) == num_writers * per_writer
    assert {r.seed for r in loaded} == set(range(num_writers * per_writer))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def test_summarize_groups_by_comparable_config(tmp_path):
    for wall in (1.0, 3.0, 2.0):
        append_run(make_record(backend="csr", wall_seconds=wall), tmp_path)
    append_run(make_record(backend="sparse_csr", wall_seconds=10.0), tmp_path)
    rows = summarize("backend_throughput", tmp_path)
    assert len(rows) == 2
    csr = next(r for r in rows if r["backend"] == "csr")
    assert csr["runs"] == 3
    assert csr["wall_seconds_median"] == 2.0
    assert csr["wall_seconds_min"] == 1.0
    assert csr["wall_seconds_latest"] == 2.0
    sparse = next(r for r in rows if r["backend"] == "sparse_csr")
    assert sparse["runs"] == 1


def test_fingerprint_ignores_seed_and_provenance_but_not_config():
    base = make_record()
    assert config_fingerprint(base) == config_fingerprint(
        make_record(seed=999, git_rev="other", hostname="elsewhere", wall_seconds=42.0)
    )
    assert config_fingerprint(base) != config_fingerprint(make_record(backend="dict"))
    assert config_fingerprint(base) != config_fingerprint(make_record(mode="full"))


# ----------------------------------------------------------------------
# Property-based round-trip (hypothesis optional, like test_backend_properties)
# ----------------------------------------------------------------------
try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dependency
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    _names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._-]{0,20}", fullmatch=True)
    _opt_names = st.none() | st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
    _walls = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False)
    _nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    _config_values = st.none() | st.booleans() | st.integers(-10, 10) | _opt_names

    @given(
        experiment=_names,
        mode=st.sampled_from(["smoke", "quick", "full"]),
        wall_seconds=_walls,
        config=st.dictionaries(st.from_regex(r"[a-z_]{1,12}", fullmatch=True), _config_values, max_size=6),
        preset=_opt_names,
        seed=st.none() | st.integers(-(2**31), 2**31),
        strategy=_opt_names,
        backend=_opt_names,
        transport=_opt_names,
        git_dirty=st.booleans(),
        phase_seconds=st.dictionaries(st.from_regex(r"[a-z_]{1,12}", fullmatch=True), _nonneg, max_size=5),
        peak_rss_mb=_nonneg,
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity_property(
        experiment, mode, wall_seconds, config, preset, seed, strategy,
        backend, transport, git_dirty, phase_seconds, peak_rss_mb,
    ):
        record = RunRecord(
            experiment=experiment,
            mode=mode,
            wall_seconds=wall_seconds,
            config=config,
            preset=preset,
            seed=seed,
            strategy=strategy,
            backend=backend,
            transport=transport,
            git_rev="deadbeef",
            git_dirty=git_dirty,
            hostname="host",
            phase_seconds=phase_seconds,
            peak_rss_mb=peak_rss_mb,
        )
        # Identity through to_dict AND through an actual JSON line.
        assert RunRecord.from_dict(record.to_dict()) == record
        assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_round_trip_identity_property():
        pass
