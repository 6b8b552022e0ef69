"""The performance gate: ``bench/compare.py`` verdicts and its exit code.

Synthetic ``bench/run.py --out`` logs exercise every verdict: unchanged runs
stay ``unchanged``, a change past the metric's bound is ``worse`` (and fails
the CLI, naming the workload), a gain counts only when enough pairs win and
the medians move beyond the parent's noise, and runs that are not comparable
(traced runs, workloads measured on one side only) never decide a verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {"setup_s": 1.0, "run_s": 2.0, "peak_rss_mb": 100.0, "nmi": 0.9, "dl_norm": 0.5}


def runs(workload: str, count: int = 10, scale: dict = None, trace: bool = False, failed: int = 0):
    """``count`` run lines of ``workload``: BASE with a small per-run jitter."""
    scale = scale or {}
    return [
        {
            "workload": workload, "seed": i, "seconds": 20, "trace": trace,
            "correct": failed == 0, "attempted": 1, "failed": failed,
            "metrics": {
                name: {"value": value * scale.get(name, 1.0) * (1 + 0.001 * i), "unit": "x"}
                for name, value in BASE.items()
            },
        }
        for i in range(count)
    ]


def write(path: Path, *groups) -> Path:
    path.write_text("".join(json.dumps(run) + "\n" for group in groups for run in group))
    return path


def compare_files(tmp_path, parent_runs, change_runs, capsys):
    """Run the CLI; return its exit code and ``{(workload, metric): verdict}``."""
    parent = write(tmp_path / "parent.jsonl", parent_runs)
    change = write(tmp_path / "change.jsonl", change_runs)
    code = compare.main([str(parent), str(change)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("workload")
    rows = {(line.split()[0], line.split()[1]): line.split()[-1] for line in lines[1:]}
    return code, rows


# ----------------------------------------------------------------------
# Verdict semantics
# ----------------------------------------------------------------------
def test_unchanged_runs_are_unchanged():
    parent = [1.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, list(parent), "lower", 0.25) == "unchanged"


def test_faster_change_in_nine_of_ten_pairs_is_improved():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [0.5 * p for p in parent[:9]] + [parent[9]]
    assert compare.verdict(parent, change, "lower", 0.25) == "improved"


def test_faster_change_with_too_few_pairs_is_unresolved():
    parent = [1.0 + 0.01 * i for i in range(compare.MIN_PAIRS - 1)]
    change = [0.5 * p for p in parent]
    assert compare.verdict(parent, change, "lower", 0.25) == "unresolved"


def test_ties_count_for_neither_side():
    # Eight wins and two ties out of ten pairs is short of nine tenths.
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0] * 2
    assert compare.verdict(parent, change, "lower", 0.25) == "unresolved"


def test_slower_change_beyond_bound_is_worse():
    parent = [1.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, [2.0 * p for p in parent], "lower", 0.25) == "worse"


def test_bound_decides_worse():
    parent, change = [1.0] * 10, [1.1] * 10
    assert compare.verdict(parent, change, "lower", 0.25) == "unchanged"
    assert compare.verdict(parent, change, "lower", 0.05) == "worse"


def test_noisy_parent_leaves_a_move_unresolved():
    parent = [0.5 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [1.2] * 10, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [0.9] * 10, "lower", 0.1) == "unresolved"


def test_change_better_than_every_parent_run_resolves_despite_noise():
    parent = [0.5 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [0.1] * 10, "lower", 0.1) == "improved"


def test_higher_is_better_metrics_invert_the_direction():
    parent = [0.9] * 10
    assert compare.verdict(parent, [0.5] * 10, "higher", 0.25) == "worse"
    assert compare.verdict(parent, [0.95] * 10, "higher", 0.25) == "improved"
    assert compare.verdict(parent, [0.95] * 10, "lower", 0.25) == "unchanged"


# ----------------------------------------------------------------------
# CLI: one row per workload and metric, exit 1 on any ``worse``
# ----------------------------------------------------------------------
def test_cli_exits_zero_when_nothing_is_worse(tmp_path, capsys):
    code, rows = compare_files(tmp_path, runs("seq-twitter"), runs("seq-twitter"), capsys)
    assert code == 0
    assert set(rows.values()) == {"unchanged"}


def test_cli_exits_one_and_names_the_workload_when_a_metric_is_worse(tmp_path, capsys):
    code, rows = compare_files(
        tmp_path, runs("edist2-1m"), runs("edist2-1m", scale={"run_s": 2.0}), capsys
    )
    assert code == 1
    assert rows[("edist2-1m", "run_s")] == "worse"
    assert [key for key, row in rows.items() if row == "worse"] == [("edist2-1m", "run_s")]


def test_cli_compares_every_end_to_end_metric_of_benchmark_json(tmp_path, capsys):
    _, rows = compare_files(tmp_path, runs("seq-twitter"), runs("seq-twitter"), capsys)
    assert [metric for _, metric in rows] == [m["name"] for m in END_TO_END]


def test_cli_reports_each_workload_and_metric_on_its_own_row(tmp_path, capsys):
    parent = runs("dcsbp2-1m") + runs("seq-twitter")
    change = runs("dcsbp2-1m", scale={"peak_rss_mb": 1.5}) + runs("seq-twitter")
    code, rows = compare_files(tmp_path, parent, change, capsys)
    assert code == 1
    assert len(rows) == 2 * len(END_TO_END)
    assert rows[("dcsbp2-1m", "peak_rss_mb")] == "worse"
    assert rows[("seq-twitter", "peak_rss_mb")] == "unchanged"


def test_cli_ignores_traced_runs(tmp_path, capsys):
    change = runs("seq-twitter") + runs("seq-twitter", scale={"run_s": 10.0}, trace=True)
    code, rows = compare_files(tmp_path, runs("seq-twitter"), change, capsys)
    assert code == 0
    assert rows[("seq-twitter", "run_s")] == "unchanged"


def test_cli_skips_a_workload_missing_from_either_file(tmp_path, capsys):
    parent = runs("seq-twitter") + runs("served-small")
    change = runs("seq-twitter") + runs("edist2-1m", scale={"run_s": 3.0})
    code, rows = compare_files(tmp_path, parent, change, capsys)
    assert code == 0
    assert {workload for workload, _ in rows} == {"seq-twitter"}


def test_cli_skips_a_metric_missing_from_either_file(tmp_path, capsys):
    change = runs("served-small")
    for run in change:
        del run["metrics"]["dl_norm"]
    _, rows = compare_files(tmp_path, runs("served-small"), change, capsys)
    assert ("served-small", "dl_norm") not in rows
    assert len(rows) == len(END_TO_END) - 1


def test_cli_does_not_count_a_gain_when_more_operations_fail(tmp_path, capsys):
    faster = {"setup_s": 0.5, "run_s": 0.5}
    _, rows = compare_files(
        tmp_path, runs("served-small"), runs("served-small", scale=faster), capsys
    )
    assert rows[("served-small", "run_s")] == "improved"
    _, rows = compare_files(
        tmp_path, runs("served-small"), runs("served-small", scale=faster, failed=1), capsys
    )
    assert rows[("served-small", "run_s")] == "unresolved"
    assert rows[("served-small", "setup_s")] == "unresolved"


@pytest.mark.parametrize("blank", ["", "\n\n"])
def test_load_skips_blank_lines(tmp_path, blank):
    path = tmp_path / "runs.jsonl"
    path.write_text(blank.join(json.dumps(run) + "\n" for run in runs("seq-twitter", count=3)))
    assert [len(group) for group in compare.load(path).values()] == [3]
