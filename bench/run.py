"""Run the repository benchmark and check its outputs.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

(``PYTHONPATH=src python -m bench`` is the same command.)  Every workload
runs in fresh child processes, one at a time, so its set-up time and peak
memory are its own: six processes that only set up, then one that sets up
and measures.  ``setup_s`` is the median of their seven set-up times.

Untraced runs print every end-to-end metric of BENCHMARK.json; ``--trace
1`` prints every per-layer metric instead, and writes the spans to
``bench/out/trace-<workload>.json``.  Each metric line gives its unit and
sample count, and the last line of a workload's output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
appends that object, tagged with the workload, seed and mode, to a JSON
lines file that ``bench/compare.py`` reads.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - set-up time counts from the line above
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import DEFAULT_SEED, WORKLOADS, HostSpeed  # noqa: E402

#: Processes per run that only set up, next to the one that also measures.
SETUP_PROBES = 6
DEFAULT_SECONDS = 20


class BenchmarkError(RuntimeError):
    """A child process failed, or its metrics differ from those BENCHMARK.json declares."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="append each workload's result to this JSON lines file")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    session = WORKLOADS[args.workload[0]].setup(args.seed, args.seconds)
    setup_s = time.perf_counter() - PROCESS_START
    try:
        out: Dict[str, Any] = {} if args.child == "setup" else session.measure(bool(args.trace), HostSpeed())
    finally:
        session.close()
    out["setup_s"] = setup_s
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_child(mode: str, name: str, args: argparse.Namespace, deadline: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode, "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # subprocess.run kills and reaps the child when the timeout expires.
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name}: {mode} process did not finish in time") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{name}: {mode} process exited with {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchmarkError(f"{name}: {mode} process printed no result") from exc


def collect(name: str, args: argparse.Namespace, declared: List[Dict[str, str]]) -> Dict[str, Any]:
    """Run one workload's processes; their metrics must be exactly ``declared``."""
    # A run takes about 1.3x --seconds; past 8x (160 s at 20 s) something hangs.
    deadline = time.monotonic() + max(60.0, 8 * args.seconds)
    setups = [] if args.trace else [
        run_child("setup", name, args, deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    out = run_child("run", name, args, deadline)
    setups.append(out.pop("setup_s"))
    if not args.trace:
        out["metrics"]["setup_s"] = statistics.median(setups)
        out["samples"]["setup_s"] = len(setups)
    check_names(name, out["metrics"], declared)
    return out


def check_names(workload: str, metrics: Dict[str, float], declared: List[Dict[str, str]]) -> None:
    """Refuse a result that lacks a declared metric or has an undeclared one."""
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise BenchmarkError(
            f"{workload}: metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json"
        )


def report(name: str, args: argparse.Namespace, out: Dict[str, Any], declared) -> Dict[str, Any]:
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}  seed {args.seed}  {args.seconds:g} s  {mode}")
    for metric in declared:
        key = metric["name"]
        value = out["metrics"][key]
        print(f"  {key:38s} {value:14.6g} {metric['unit']:6s} n={out['samples'][key]}")
    for key, value in out.get("notes", {}).items():
        print(f"  ({key} = {value:.6g})" if isinstance(value, float) else f"  ({key} = {value})")
    if out.get("layers"):
        total = sum(out["layers"].values())
        print("  layer self time per operation:")
        for layer, seconds in out["layers"].items():
            print(f"    {layer:14s} {seconds:10.4f} s  {100 * seconds / total:5.1f}%")
    for missing in out.get("missing", []):
        print(f"  missing: {missing}")
    if out.get("trace_file"):
        print(f"  spans: {out['trace_file']}")
    for problem in out["problems"]:
        print(f"  FAILED CHECK: {problem}")
    correct = out["failed"] == 0 and not out["problems"]
    print(f"  {out['failed']} of {out['attempted']} operations failed")
    units = {m["name"]: m["unit"] for m in declared}
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }


def main(argv: List[str] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: {ROOT} does not hold the repro sources and BENCHMARK.json", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    all_correct = True
    for name in args.workload or list(WORKLOADS):
        try:
            result = report(name, args, collect(name, args, declared), declared)
        except BenchmarkError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        all_correct = all_correct and result["correct"]
        line = json.dumps(result)
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as fh:
                tags = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
                fh.write(json.dumps({**tags, **result}) + "\n")
        print(line, flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
