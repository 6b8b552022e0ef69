"""Decide, per workload and end-to-end metric, whether a change moved the benchmark.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are ``bench/run.py --out`` logs of untraced runs made with the
same settings, run in alternating pairs (parent then change, then change
then parent, ...); the i-th run of a workload in one file is paired with
the i-th run of that workload in the other.  Each row reads:

* ``improved``: at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ by more
  than the parent's interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's own spread is wider than the bound and not
  every change run beats every parent run, or the change looks better but
  the pairs do not meet the rule above;
* ``unchanged``: otherwise.

Exits with status 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.stats import quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_RATE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    delta = sign * (statistics.median(change) - base)  # > 0: the change is worse
    q1, _, q3 = quartiles(parent)
    noise = q3 - q1
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if noise > bound * abs(base) and not all_better:
        return "unresolved"
    if delta > bound * abs(base):
        return "worse"
    if delta < 0 and -delta > noise:
        pairs = list(zip(parent, change))
        wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
        if len(pairs) >= MIN_PAIRS and wins >= WIN_RATE * len(pairs):
            return "improved"
        return "unresolved"
    return "unchanged"


def load(path: Path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if not run["trace"]:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_runs, change_runs = load(args.parent), load(args.change)
    any_worse = False
    print(f"{'workload':14s} {'metric':14s} {'parent median [q1, q3]':>34s} {'change':>11s} "
          f"{'delta':>8s} {'wins':>7s}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        a_runs, b_runs = parent_runs[workload], change_runs[workload]
        failed = sum(r["failed"] for r in b_runs) > sum(r["failed"] for r in a_runs)
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            row = verdict(a, b, metric["better"], metric["bound"])
            if row == "improved" and failed:
                row = "unresolved"  # a gain does not count when more operations fail
            any_worse = any_worse or row == "worse"
            q1, median, q3 = quartiles(a)
            change = statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for p, c in zip(a, b) if sign * (c - p) < 0)
            print(f"{workload:14s} {name:14s} {median:12.5g} [{q1:9.5g}, {q3:9.5g}] {change:11.5g} "
                  f"{100 * (change - median) / median:+7.1f}% {wins:3d}/{min(len(a), len(b)):<3d}  {row}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
