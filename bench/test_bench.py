"""Fast checks of the benchmark itself (tracer, statistics, CLI, metric names)."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, trace
from bench.stats import percentile, tail_percentile
from bench.trace import LAUNCHERS, TARGETS, Tracer
from bench.workloads import (
    WORKLOADS,
    HostSpeed,
    PartitionWorkload,
    ServedWorkload,
    per_layer_metrics,
    same_partition,
)
from repro import partition
from repro.graphs.generators import DCSBMSpec, DegreeSequenceSpec, generate_dcsbm_graph

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def _patched_attributes():
    out = {}
    for module_name, class_name, attrs, _layer, _per_call in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        out.update({(owner, attr): owner.__dict__[attr] for attr in attrs})
    for module_name in LAUNCHERS:
        module = importlib.import_module(module_name)
        out[(module, "run_distributed")] = module.__dict__["run_distributed"]
    return out


def test_tracer_restores_every_attribute_it_patched():
    before = _patched_attributes()
    with Tracer():
        during = _patched_attributes()
        assert all(during[key] is not original for key, original in before.items())
    after = _patched_attributes()
    assert all(after[key] is original for key, original in before.items())


def test_tracer_undoes_a_partial_install(monkeypatch):
    before = _patched_attributes()
    missing = ("repro.core.sbp", None, ("no_such_function",), "sbp", True)
    monkeypatch.setattr(trace, "TARGETS", TARGETS + (missing,))
    with pytest.raises(RuntimeError, match="no_such_function"):
        Tracer().install()
    after = _patched_attributes()
    assert all(after[key] is original for key, original in before.items())


@pytest.mark.parametrize("strategy, ranks", [("sequential", 1), ("edist", 2)])
def test_traced_partition_matches_untraced_bit_for_bit(strategy, ranks):
    graph = generate_dcsbm_graph(
        DCSBMSpec(60, 4, DegreeSequenceSpec(min_degree=6, max_degree=30), intra_inter_ratio=4.0), seed=60
    )
    untraced = partition(graph, strategy=strategy, num_ranks=ranks, seed=7)
    with Tracer() as tracer:
        with tracer.span("bench.partition"):
            traced = partition(graph, strategy=strategy, num_ranks=ranks, seed=7)
    assert same_partition(untraced, traced)
    roots = {span["name"] for span in tracer.roots()}
    assert roots == ({"bench.partition", "mpi.rank"} if ranks > 1 else {"bench.partition"})
    assert tracer.unattributed_share() < 0.2
    metrics = per_layer_metrics(tracer, 1, [traced])
    assert set(metrics) == PER_LAYER
    assert metrics["mcmc.proposed"] > 0 and metrics["merges.propose_calls"] > 0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(32) == 68
    assert tail_percentile(10) is None
    for count in (11, 20, 32, 57, 100, 250):
        p = tail_percentile(count)
        assert count * (100 - p) >= 10 * 100  # ten or more samples beyond p
        assert count * (99 - p) < 10 * 100  # fewer beyond the next percentile
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_workloads_and_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    with pytest.raises(run.BenchmarkError, match="extra"):
        run.check_names("w", {**{name: 1.0 for name in END_TO_END}, "extra": 1.0}, BENCHMARK["end_to_end"])
    with pytest.raises(run.BenchmarkError, match="setup_s"):
        run.check_names("w", {name: 1.0 for name in END_TO_END - {"setup_s"}}, BENCHMARK["end_to_end"])


@pytest.mark.parametrize(
    "workload",
    [
        PartitionWorkload("tiny", strategy="sequential", num_ranks=1, family="1M", scale=0.00002,
                          call_s=1.0, min_nmi=0.0),
        ServedWorkload("tiny", rate_per_s=40.0, burst_jobs=2, bursts=1),
    ],
    ids=["partition", "served"],
)
def test_every_reported_name_is_declared(workload):
    session = workload.setup(seed=3, seconds=0.1)
    try:
        untraced = session.measure(trace=False, speed=HostSpeed())
        traced = session.measure(trace=True, speed=HostSpeed())
    finally:
        session.close()
    for out in (untraced, traced):
        assert out["failed"] == 0 and not out["problems"], out["problems"]
    assert set(untraced["metrics"]) | {"setup_s"} == END_TO_END
    assert set(traced["metrics"]) == PER_LAYER


def test_unknown_workload_fails_and_lists_the_valid_names():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "no-such-workload"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    for name in WORKLOADS:
        assert name in done.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seq-twitter"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
