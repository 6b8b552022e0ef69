"""The benchmark workloads: what runs, on which inputs, and how it is checked.

Each workload runs in a fresh child process of ``bench/run.py``.
``setup`` is what a user pays once: imports, input generation, starting
the service, and one warm-up call on a small input.  ``measure`` runs the
timed operations and checks every output.  With tracing, part of the work
is repeated with :class:`bench.trace.Tracer` installed, and the same work
untraced gives ``trace.overhead``.

Every workload uses the library defaults (the ``"paper"`` config, the
``"dict"`` backend, the ``"threads"`` transport), so a change of default
shows up as a gain or a loss.  Inputs derive from the workload seed only.

The 2-core reference host is shared: its speed drifts by up to 1.9x over
minutes and jumps by 1.5x for seconds at a time, and SBP's cost differs by
10-25% from one random graph to the next.  So partition times are
normalised by :class:`HostSpeed`, a fixed kernel timed between calls, and
a partition workload runs a set of graphs, each twice in interleaved
passes, keeping each graph's faster run.  The graph count is
fixed by the run length, not by the host, so two commits time the same
graphs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench.stats import percentile, tail_percentile
from bench.trace import SWEEPS, Tracer

__all__ = ["DEFAULT_SEED", "WORKLOADS", "HostSpeed", "derive_seed", "per_layer_metrics"]

DEFAULT_SEED = 20230530

#: Where traced runs write their spans.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The served job and the warm-up input: a 40-vertex planted graph that
#: partitions in ~0.1 s, so serving costs are a large share of each job.
#: At ``intra_inter_ratio`` 4 about one graph in 300 collapses to one
#: block (NMI 0); at 6 none of 1300 did.
SMALL_GRAPH = {
    "generator": "dcsbm", "num_vertices": 40, "num_communities": 4,
    "intra_inter_ratio": 6.0, "min_degree": 6, "max_degree": 30,
}


def derive_seed(*parts: object) -> int:
    """A 31-bit seed from labelled parts; the same parts give the same seed anywhere."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / (1024.0 * 1024.0)


class HostSpeed:
    """Times a fixed kernel to cancel the host's speed drift out of timings.

    The kernel never changes with the code under test.  Its mix (dict
    updates through function calls over 4000 rows, small numpy reductions)
    resembles SBP's inner loops; on the reference host, timing it around
    each ``partition()`` call cut the spread of 15-second medians of call
    times from 16% to 5%.
    :meth:`normalize` scales a wall time to a host whose kernel takes
    :data:`REFERENCE_S`, the kernel's time on that host at full speed.
    """

    REFERENCE_S = 0.011

    def __init__(self) -> None:
        import numpy as np

        rss_before = current_rss_mb()
        rng = random.Random(0)
        self._rows: List[Dict[int, int]] = [{} for _ in range(4000)]
        for row in self._rows:
            for _ in range(20):
                row[rng.randrange(4000)] = rng.randrange(1, 9)
        self._keys = [(rng.randrange(4000), rng.randrange(4000)) for _ in range(20000)]
        self._array = np.arange(4000 * 64, dtype=np.int64).reshape(4000, 64)
        self.samples: List[float] = []
        #: Resident memory the kernel's data holds, left out of ``peak_rss_mb``.
        self.footprint_mb = current_rss_mb() - rss_before

    @staticmethod
    def _bump(row: Dict[int, int], key: int, weight: int) -> None:
        row[key] = row.get(key, 0) + weight

    def _kernel(self) -> float:
        start = time.perf_counter()
        rows, array, bump = self._rows, self._array, self._bump
        for i, j in self._keys:
            bump(rows[i], j, 1)
            if not i & 15:
                array[i].sum()
        for i, j in self._keys:
            bump(rows[i], j, -1)
        return time.perf_counter() - start

    def sample(self) -> float:
        """The kernel's time now (median of three runs)."""
        value = statistics.median(self._kernel() for _ in range(3))
        self.samples.append(value)
        return value

    def normalize(self, seconds: float, *samples: float) -> float:
        return seconds * self.REFERENCE_S / statistics.fmean(samples)

    def slowdown(self) -> float:
        """Median kernel time of this run over :data:`REFERENCE_S`."""
        return statistics.median(self.samples) / self.REFERENCE_S


def small_graph(seed: int):
    from repro.graphs.generators import DCSBMSpec, DegreeSequenceSpec, generate_dcsbm_graph

    spec = DCSBMSpec(
        num_vertices=SMALL_GRAPH["num_vertices"],
        num_communities=SMALL_GRAPH["num_communities"],
        degree_spec=DegreeSequenceSpec(
            min_degree=SMALL_GRAPH["min_degree"], max_degree=SMALL_GRAPH["max_degree"]
        ),
        intra_inter_ratio=SMALL_GRAPH["intra_inter_ratio"],
    )
    return generate_dcsbm_graph(spec, seed=seed)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def per_layer_metrics(tracer: Tracer, ops: int, results: List[Any]) -> Dict[str, float]:
    """Every per-layer metric the tracer and the results can give, per operation.

    Layers without work on this workload (``mpi`` on a sequential run)
    report 0.  The ``service.*`` waits, ``trace.overhead`` and
    ``bench.generator_late_max_s`` are filled in by the workload.
    """
    totals = tracer.totals()

    def total(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names) / ops

    def self_time(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names) / ops

    def calls(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[0] for name in names) / ops

    def phase(name: str) -> float:
        return sum(r.phase_seconds.get(name, 0.0) for r in results) / ops

    comm = [r.comm_stats for r in results if r.comm_stats is not None]
    counters = tracer.counters
    return {
        "graphs.generate_s": total("graphs.generate_dcsbm_graph"),
        "blockmodel.from_graph_s": total("blockmodel.from_graph"),
        "blockmodel.from_assignment_s": total("blockmodel.from_assignment"),
        "blockmodel.description_length_s": total("blockmodel.description_length"),
        "blockmodel.description_length_calls": calls("blockmodel.description_length"),
        "blockmodel.move_vertex_s": total("blockmodel.move_vertex"),
        "blockmodel.move_vertex_calls": calls("blockmodel.move_vertex"),
        "blockmodel.copy_s": total("blockmodel.copy"),
        "merges.propose_s": total("merges.propose_merges"),
        "merges.propose_calls": calls("merges.propose_merges"),
        "merges.score_s": total(
            "merges.delta_dl_for_merge", "merges.delta_dl_for_merges", "merges.best_segmented_merges"
        ),
        "merges.select_apply_s": total("merges.select_and_apply_merges"),
        "mcmc.sweep_s": self_time(*SWEEPS),
        "mcmc.propose_s": total("mcmc.propose_block_for_vertex"),
        "mcmc.delta_dl_s": total("mcmc.delta_dl_for_move", "mcmc.delta_dl_for_moves"),
        "mcmc.accept_s": total(
            "mcmc.acceptance_probability", "mcmc.acceptance_probabilities",
            "mcmc.hastings_correction", "mcmc.hastings_corrections",
        ),
        "mcmc.sweeps": counters["mcmc.sweeps"] / ops,
        "mcmc.proposed": counters["mcmc.proposed"] / ops,
        "mcmc.accepted": counters["mcmc.accepted"] / ops,
        "mcmc.accept_ratio": counters["mcmc.accepted"] / max(counters["mcmc.proposed"], 1),
        "golden_ratio.update_s": total("golden_ratio.update"),
        "golden_ratio.cycles": calls("golden_ratio.update"),
        "mpi.allgather_s": total("mpi.allgather"),
        "mpi.bcast_s": total("mpi.bcast"),
        "mpi.p2p_s": total("mpi.send", "mpi.recv"),
        "mpi.calls": sum(c.total_calls for c in comm) / ops,
        "mpi.bytes_sent": sum(c.total_bytes_sent for c in comm) / ops,
        "dcsbp.subgraph_s": phase("subgraph_sbp"),
        "dcsbp.combine_s": phase("combine"),
        "dcsbp.finetune_s": phase("finetune"),
        "api.result_encode_s": total("results.to_dict"),
        "service.validate_s": total("service.validate_job_request"),
        "service.queue_wait_p50_s": 0.0,
        "service.job_run_p50_s": 0.0,
        "service.http_post_p50_s": 0.0,
        "service.http_result_p50_s": 0.0,
        "service.polls_per_job": 0.0,
        "service.burst_s_per_job": 0.0,
        "trace.unattributed_share": tracer.unattributed_share(),
        "trace.overhead": 0.0,
        "bench.generator_late_max_s": 0.0,
    }


def report_trace(out: Dict[str, Any], tracer: Tracer, ops: int, results: List[Any],
                 extra: Dict[str, float], workload: str, seed: int) -> None:
    """Replace ``out``'s metrics with the per-layer ones and write the spans."""
    metrics = {**per_layer_metrics(tracer, ops, results), **extra}
    layers = sorted(tracer.layers().items(), key=lambda kv: -kv[1])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, **tracer.to_dict()}))
    out.update(
        metrics=metrics,
        samples={name: ops for name in metrics},
        layers={layer: seconds / ops for layer, seconds in layers},
        missing=tracer.missing,
        trace_file=str(path),
    )


def same_partition(a, b) -> bool:
    return (
        float(a.description_length).hex() == float(b.description_length).hex()
        and a.assignment.tolist() == b.assignment.tolist()
    )


# ----------------------------------------------------------------------
# partition() workloads
# ----------------------------------------------------------------------
#: Runs per graph, in interleaved passes; the faster one counts.
REPEATS = 2


@dataclass(frozen=True)
class PartitionWorkload:
    """Closed loop of ``partition()`` calls over a set of generated graphs."""

    name: str
    strategy: str
    num_ranks: int
    #: ``"twitter"`` (the Table V stand-in) or ``"1M"`` (the Table IV graph).
    family: str
    scale: float
    #: Nominal seconds per call on the 2-core reference host; sizes the
    #: graph set so that a run measures about ``--seconds``.
    call_s: float
    #: Lowest acceptable mean NMI against the planted communities.
    min_nmi: float
    #: Every graph's dl_norm must stay below this (``None``: not checked;
    #: DC-SBP can legitimately collapse a small graph into one block).
    max_dl_norm: Optional[float] = None

    def num_graphs(self, seconds: float) -> int:
        return max(2, round(seconds / (REPEATS * self.call_s)))

    def graph(self, seed: int, k: int):
        from repro.graphs.generators import realworld_graph, scaling_graph

        graph_seed = derive_seed(self.family, seed, k)
        if self.family == "twitter":
            # The planted labels are kept only to score NMI; partition() ignores them.
            return realworld_graph("twitter", scale=self.scale, seed=graph_seed, keep_truth=True)
        return scaling_graph(self.family, scale=self.scale, seed=graph_seed)

    def setup(self, seed: int, seconds: float) -> "PartitionSession":
        return PartitionSession(self, seed, seconds)


class PartitionSession:
    def __init__(self, workload: PartitionWorkload, seed: int, seconds: float) -> None:
        from repro import partition

        self.w = workload
        self.seed = seed
        self._partition = partition
        count = workload.num_graphs(seconds)
        self.graphs = [workload.graph(seed, k) for k in range(count)]
        self.run_seeds = [derive_seed(workload.family, seed, k, "run") for k in range(count)]
        self.call(small_graph(derive_seed("warm-up", seed)), derive_seed("warm-up", seed, "run"))

    def call(self, graph, run_seed: int):
        return self._partition(
            graph, strategy=self.w.strategy, num_ranks=self.w.num_ranks, seed=run_seed
        )

    def close(self) -> None:
        pass

    def measure(self, trace: bool, speed: HostSpeed) -> Dict[str, Any]:
        count = len(self.graphs) if not trace else max(1, (len(self.graphs) + 1) // 2)
        times: List[List[float]] = [[] for _ in range(count)]
        results: List[Optional[Any]] = [None] * count
        problems: List[str] = []
        attempted = failed = 0
        before = speed.sample()
        for repeat in range(REPEATS):
            for k in range(count):
                attempted += 1
                start = time.perf_counter()
                try:
                    result = self.call(self.graphs[k], self.run_seeds[k])
                except Exception as exc:  # noqa: BLE001 - a failed call is a reported outcome
                    result = None
                    failed += 1
                    problems.append(f"graph {k}: {type(exc).__name__}: {exc}")
                elapsed = time.perf_counter() - start
                after = speed.sample()
                seconds, before = speed.normalize(elapsed, before, after), after
                if result is None:
                    continue
                times[k].append(seconds)
                if results[k] is None:
                    results[k] = result
                elif not same_partition(results[k], result):
                    failed += 1
                    problems.append(f"graph {k}: repeat {repeat} gave another partition")
        done = [k for k in range(count) if times[k]]
        best = [min(times[k]) for k in done]
        nmis = [results[k].nmi() for k in done]
        dl_norms = [results[k].dl_norm() for k in done]
        for k, dl_norm in zip(done, dl_norms):
            if self.w.max_dl_norm is not None and not dl_norm < self.w.max_dl_norm:
                problems.append(f"graph {k}: dl_norm {dl_norm:.4f} is not below {self.w.max_dl_norm}")
        mean_nmi = statistics.fmean(nmis) if nmis else 0.0
        if mean_nmi < self.w.min_nmi:
            problems.append(f"mean NMI {mean_nmi:.4f} is below {self.w.min_nmi}")
        out: Dict[str, Any] = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": {
                "run_s": statistics.fmean(best) if best else 0.0,
                "peak_rss_mb": peak_rss_mb() - speed.footprint_mb,
                "nmi": mean_nmi,
                "dl_norm": statistics.fmean(dl_norms) if dl_norms else 0.0,
            },
            "samples": {
                "run_s": len(best), "peak_rss_mb": 1, "nmi": len(nmis), "dl_norm": len(dl_norms),
            },
            "notes": {
                "median_s": statistics.median(best) if best else 0.0,
                "graphs": count,
                "vertices": self.graphs[0].num_vertices,
                "repeats": REPEATS,
                "max_s": max(best) if best else 0.0,
                "host_slowdown": speed.slowdown(),
            },
        }
        if trace:
            self._trace(out, done, best, results, speed)
        return out

    def _trace(self, out, done: List[int], best: List[float], results, speed: HostSpeed) -> None:
        traced_s = 0.0
        traced_results = []
        before = speed.sample()
        with Tracer() as tracer:
            for k in done:
                graph = self.w.graph(self.seed, k)
                start = time.perf_counter()
                with tracer.span("bench.partition"):
                    result = self.call(graph, self.run_seeds[k])
                elapsed = time.perf_counter() - start
                after = speed.sample()
                traced_s += speed.normalize(elapsed, before, after)
                before = after
                traced_results.append(result)
                out["attempted"] += 1
                if not same_partition(results[k], result):
                    out["failed"] += 1
                    out["problems"].append(f"graph {k}: the traced run gave another partition")
        extra = {"trace.overhead": traced_s / sum(best) - 1.0}
        report_trace(out, tracer, len(done), traced_results, extra, self.w.name, self.seed)


# ----------------------------------------------------------------------
# The served workload
# ----------------------------------------------------------------------
TERMINAL = ("succeeded", "failed", "cancelled", "timeout")
#: Share of ``--seconds`` spent sending open-loop jobs; the rest drains the tail.
OPEN_SHARE = 0.9
POLL_S = 0.010
MIN_JOB_NMI = 0.5


class _Client:
    """One client on one keep-alive HTTP connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any, float]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


@dataclass(frozen=True)
class ServedWorkload:
    """``PartitionService`` driven over HTTP by one client on one connection.

    Untraced runs are one open loop: jobs sent at a fixed rate, whatever
    the service is doing.  Traced runs add closed bursts (jobs posted back
    to back, then drained), untraced and traced, for the overhead and the
    per-layer numbers.  Served timings are not normalised by
    :class:`HostSpeed`: a 40-vertex job fits in cache and barely slows when
    the kernel does, and half of each job's latency is spent in fixed
    40 ms TCP acknowledgement delays.
    """

    name: str
    #: About half of what back-to-back bursts sustain on the reference host.
    rate_per_s: float = 2.5
    burst_jobs: int = 8
    bursts: int = 3

    def setup(self, seed: int, seconds: float) -> "ServedSession":
        return ServedSession(self, seed, seconds)


class ServedSession:
    def __init__(self, workload: ServedWorkload, seed: int, seconds: float) -> None:
        from repro.core.results import SBPResult
        from repro.service import PartitionService

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self._decode = SBPResult.from_dict
        self.service = PartitionService(max_workers=2).start()
        self.client = _Client(self.service.host, self.service.port)
        self._jobs = 0
        try:
            records, _late, _wall = self._drive([0.0])
            failed, problems, _results = self._check(records)
            if failed:
                raise RuntimeError(f"warm-up job failed: {problems}")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.client.close()
        self.service.stop()

    def _spec(self) -> Dict[str, Any]:
        """The next job: a distinct-seed small graph, partitioned with a fixed seed."""
        self._jobs += 1
        return {
            "graph": {**SMALL_GRAPH, "seed": derive_seed("served", self.seed, self._jobs)},
            "overrides": {"seed": derive_seed("served", self.seed, self._jobs, "run")},
        }

    def _drive(self, offsets: List[float]) -> Tuple[List[Dict[str, Any]], float, float]:
        """Send one job per offset (seconds after now), poll until all finish.

        Each job's latency runs from when it was due to be sent to when its
        result body arrived, so a stalled client or server also delays the
        jobs queued behind the stall.  Returns the per-job records, how late
        the generator sent its latest job, and the wall time.
        """
        start = time.perf_counter()
        due = [start + offset for offset in offsets]
        specs = [self._spec() for _ in offsets]
        records: List[Dict[str, Any]] = []
        pending: Dict[str, Dict[str, Any]] = {}
        late = 0.0
        sent = 0
        while sent < len(due) or pending:
            now = time.perf_counter()
            if sent < len(due) and now >= due[sent]:
                late = max(late, now - due[sent])
                status, body, post_s = self.client.request("POST", "/jobs", specs[sent])
                record = {"due": due[sent], "post_status": status, "post_s": post_s, "polls": 0}
                records.append(record)
                if status == 201:
                    pending[body["job_id"]] = record
                    record["job_id"] = body["job_id"]
                sent += 1
                continue
            for job_id, record in list(pending.items()):
                _status, body, _ = self.client.request("GET", f"/jobs/{job_id}")
                record["polls"] += 1
                if body.get("state") not in TERMINAL:
                    continue
                record["state"] = body["state"]
                status, result, result_s = self.client.request("GET", f"/jobs/{job_id}/result")
                record["latency_s"] = time.perf_counter() - record["due"]
                record["result_s"] = result_s
                record["result"] = result if status == 200 else None
                del pending[job_id]
            wait = POLL_S if sent >= len(due) else min(POLL_S, due[sent] - time.perf_counter())
            if wait > 0:
                time.sleep(wait)
        return records, late, time.perf_counter() - start

    def _check(self, records: List[Dict[str, Any]]) -> Tuple[int, List[str], List[Any]]:
        """Failed-job count, the problems found, and the decoded results."""
        problems: List[str] = []
        results = []
        for record in records:
            job = record.get("job_id", "?")
            if record["post_status"] != 201:
                problems.append(f"job {job}: POST returned {record['post_status']}")
                continue
            if record.get("state") != "succeeded" or record.get("result") is None:
                problems.append(f"job {job}: ended {record.get('state')!r}")
                continue
            try:
                result = self._decode(record["result"])
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"job {job}: result does not load: {exc}")
                continue
            nmi = result.nmi()
            if nmi < MIN_JOB_NMI:
                problems.append(f"job {job}: NMI {nmi:.3f} is below {MIN_JOB_NMI}")
                continue
            results.append(result)
        return len(problems), problems, results

    def _burst(self) -> Tuple[List[Dict[str, Any]], float]:
        records, _late, wall = self._drive([0.0] * self.w.burst_jobs)
        return records, wall / self.w.burst_jobs

    def measure(self, trace: bool, speed: HostSpeed) -> Dict[str, Any]:
        n_open = max(4, round(self.w.rate_per_s * OPEN_SHARE * self.seconds))
        open_records, late, _wall = self._drive([i / self.w.rate_per_s for i in range(n_open)])
        failed, problems, results = self._check(open_records)
        latencies = [r["latency_s"] for r in open_records if "latency_s" in r]
        tail = tail_percentile(len(latencies))
        nmis = [r.nmi() for r in results]
        dl_norms = [r.dl_norm() for r in results]
        out: Dict[str, Any] = {
            "attempted": len(open_records),
            "failed": failed,
            "problems": problems,
            "metrics": {
                "run_s": statistics.fmean(latencies) if latencies else 0.0,
                "peak_rss_mb": peak_rss_mb() - speed.footprint_mb,
                "nmi": statistics.median(nmis) if nmis else 0.0,
                "dl_norm": statistics.median(dl_norms) if dl_norms else 0.0,
            },
            "samples": {
                "run_s": len(latencies), "peak_rss_mb": 1, "nmi": len(nmis), "dl_norm": len(dl_norms),
            },
            "notes": {
                "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
                "jobs": n_open,
                "rate_per_s": self.w.rate_per_s,
                f"latency_p{tail}_s" if tail else "latency_max_s": (
                    percentile(latencies, tail) if tail else max(latencies, default=0.0)
                ),
                "generator_late_max_s": late,
            },
        }
        if trace:
            self._trace(out, open_records, late)
        return out

    def _trace(self, out: Dict[str, Any], open_records, late: float) -> None:
        untraced = [self._burst() for _ in range(self.w.bursts)]
        with Tracer() as tracer:
            records, traced_per_job = self._burst()
        untraced_failed, untraced_problems, _ = self._check([r for rs, _ in untraced for r in rs])
        failed, problems, results = self._check(records)
        out["attempted"] += self.w.burst_jobs * (len(untraced) + 1)
        out["failed"] += untraced_failed + failed
        out["problems"] += untraced_problems + problems
        jobs = [self.service.executor.get(r["job_id"]) for r in open_records if "job_id" in r]
        per_job = statistics.median(seconds for _, seconds in untraced)

        def p50(values: List[float]) -> float:
            return statistics.median(values) if values else 0.0

        extra = {
            "service.queue_wait_p50_s": p50(
                [j.started_at - j.submitted_at for j in jobs if j.started_at is not None]
            ),
            "service.job_run_p50_s": p50([j.latency_seconds for j in jobs if j.latency_seconds]),
            "service.http_post_p50_s": p50([r["post_s"] for r in open_records]),
            "service.http_result_p50_s": p50([r["result_s"] for r in open_records if "result_s" in r]),
            "service.polls_per_job": statistics.fmean([r["polls"] for r in open_records]),
            "service.burst_s_per_job": per_job,
            "trace.overhead": traced_per_job / per_job - 1.0,
            "bench.generator_late_max_s": late,
        }
        report_trace(out, tracer, len(records), results, extra, self.w.name, self.seed)


#: Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        PartitionWorkload(
            "seq-twitter", strategy="sequential", num_ranks=1, family="twitter", scale=0.0003,
            call_s=1.1, min_nmi=0.85, max_dl_norm=1.0,
        ),
        PartitionWorkload(
            "edist2-1m", strategy="edist", num_ranks=2, family="1M", scale=0.00012,
            call_s=1.0, min_nmi=0.8,
        ),
        PartitionWorkload(
            "dcsbp2-1m", strategy="dcsbp", num_ranks=2, family="1M", scale=0.00012,
            call_s=0.6, min_nmi=0.5,
        ),
        ServedWorkload("served-small"),
    )
}
