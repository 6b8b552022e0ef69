"""The HTTP/JSON API, exercised over a live server on an ephemeral port."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import STRATEGIES, partition
from repro.core.config import BACKENDS, SBPConfig
from repro.core.context import RunContext
from repro.core.results import SBPResult
from repro.graphs.io import graph_to_dict
from repro.service import JobExecutor, PartitionService
from repro.service.http_api import MAX_BODY_BYTES
from repro.service.schemas import ValidationError, validate_job_request

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def call(url, method="GET", body=None, raw=None):
    data = raw if raw is not None else (None if body is None else json.dumps(body).encode())
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def service():
    with PartitionService(max_workers=2, record_runs=False) as svc:
        yield svc


EDGES_BODY = {
    "graph": {
        "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3], [0, 3]],
        "name": "two-triangles",
    },
    "preset": "fast",
}


class TestRoutingAndErrors:
    def test_healthz(self, service):
        assert call(service.base_url + "/healthz") == (200, {"status": "ok"})

    def test_unknown_route_404(self, service):
        status, payload = call(service.base_url + "/nope")
        assert status == 404
        assert payload["error"]["status"] == 404

    def test_unknown_job_404_on_get_result_delete(self, service):
        for suffix, method in (("/jobs/ghost", "GET"),
                               ("/jobs/ghost/result", "GET"),
                               ("/jobs/ghost", "DELETE")):
            status, payload = call(service.base_url + suffix, method)
            assert status == 404
            assert "ghost" in payload["error"]["message"]

    def test_invalid_json_body_400(self, service):
        status, payload = call(service.base_url + "/jobs", "POST", raw=b"{not json")
        assert status == 400
        assert payload["error"]["field"] == "body"

    @pytest.mark.parametrize("content_length, status", [
        ("abc", 400),
        ("-5", 400),
        ("1.5", 400),
        ("0x10", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_bad_content_length_closes_then_serves_next_request(
        self, service, content_length, status
    ):
        conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", content_length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == status
            assert payload["error"]["field"] == "Content-Length"
            assert response.getheader("Connection") == "close"
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert (response.status, json.loads(response.read())) == (200, {"status": "ok"})
        finally:
            conn.close()

    def test_empty_body_400(self, service):
        status, payload = call(service.base_url + "/jobs", "POST", raw=b"")
        assert status == 400
        assert payload["error"]["field"] == "body"

    @pytest.mark.parametrize("mutate, field", [
        (lambda b: b.pop("graph"), "graph"),
        (lambda b: b.update(priority="high"), "priority"),
        (lambda b: b.update(strategy="quantum"), "strategy"),
        (lambda b: b.update(preset="warp"), "preset"),
        (lambda b: b.update(config={"x": 1}, preset=None) or b.pop("preset"), "config"),
        (lambda b: b.update(timeout=-3), "timeout"),
        (lambda b: b.update(num_ranks=0), "num_ranks"),
        (lambda b: b.update(job_id=""), "job_id"),
        (lambda b: b.update(frobnicate=1), "frobnicate"),
        (lambda b: b.__setitem__("graph", {"edges": [[0, "a"]]}), "graph.edges"),
        (lambda b: b.__setitem__("graph", {"edges": [[0, 1]], "num_vertices": 1}),
         "graph.num_vertices"),
        (lambda b: b.__setitem__("graph", {"generator": "tesseract"}), "graph.generator"),
        (lambda b: b.__setitem__("graph", {"generator": "challenge", "graph_id": "1m-easy"}),
         "graph.graph_id"),
        (lambda b: b.__setitem__("graph", {"generator": "dcsbm", "num_vertices": -5,
                                           "num_communities": 2}), "graph.num_vertices"),
        (lambda b: b.update(overrides={"no_such_knob": 1}), "overrides"),
    ])
    def test_bad_bodies_name_the_offending_field(self, service, mutate, field):
        body = json.loads(json.dumps(EDGES_BODY))
        mutate(body)
        status, payload = call(service.base_url + "/jobs", "POST", body)
        assert status == 400, payload
        assert payload["error"]["field"] == field
        assert field.split(".")[-1] in payload["error"]["message"]

    @pytest.mark.parametrize("backend", ["dict", "quantum"])
    @pytest.mark.parametrize("field", ["config", "overrides"])
    def test_unknown_matrix_backend_names_the_field_and_lists_backends(
        self, service, field, backend
    ):
        body = json.loads(json.dumps(EDGES_BODY))
        if field == "config":
            body.pop("preset")
            body["config"] = dict(SBPConfig.fast().to_dict(), matrix_backend=backend)
        else:
            body["overrides"] = {"matrix_backend": backend}
        status, payload = call(service.base_url + "/jobs", "POST", body)
        assert status == 400, payload
        assert payload["error"]["field"] == field
        message = payload["error"]["message"]
        assert f"unknown matrix_backend {backend!r}" in message
        for valid in BACKENDS:
            assert repr(valid) in message

    @pytest.mark.parametrize("name", [*STRATEGIES, "sbp"])
    def test_partition_and_http_accept_the_same_strategy_names(self, name):
        body = dict(EDGES_BODY, strategy=name)
        if name in STRATEGIES:
            request = validate_job_request(body)
            assert partition(request.graph, strategy=name, config=request.config, seed=0)
        else:
            with pytest.raises(ValidationError) as excinfo:
                validate_job_request(body)
            assert excinfo.value.field == "strategy"
            graph = validate_job_request(EDGES_BODY).graph
            with pytest.raises(ValueError, match=f"unknown strategy {name!r}"):
                partition(graph, strategy=name)

    def test_config_and_preset_conflict(self, service):
        body = dict(EDGES_BODY, config={"seed": 1})
        status, payload = call(service.base_url + "/jobs", "POST", body)
        assert status == 400
        assert payload["error"]["field"] == "config"
        assert "either" in payload["error"]["message"]

    def test_duplicate_job_id_409(self, service):
        body = dict(EDGES_BODY, job_id="dup")
        status, _ = call(service.base_url + "/jobs", "POST", body)
        assert status == 201
        status, payload = call(service.base_url + "/jobs", "POST", body)
        assert status == 409
        assert "dup" in payload["error"]["message"]

    def test_result_before_terminal_409(self):
        release = threading.Event()

        class Gated:
            name = "gated"

            def run(self, graph, config, *, num_ranks=1, run_context=None):
                release.wait(timeout=30)
                return SimpleNamespace(runtime_seconds=0.0, phase_seconds={})

        executor = JobExecutor(max_workers=1, record_runs=False)
        with PartitionService(executor=executor) as svc:
            graph = _tiny_graph()
            job = executor.submit(graph, strategy=Gated(), job_id="inflight")
            status, payload = call(svc.base_url + "/jobs/inflight/result")
            assert status == 409
            assert "inflight" in payload["error"]["message"]
            release.set()
            executor.wait("inflight", timeout=30)
        executor.shutdown()


def _tiny_graph():
    from repro.graphs.graph import Graph

    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    return Graph.from_edges(6, edges, name="tiny-http")


class TestLifecycleOverHTTP:
    def test_submit_list_status_cancel(self, service):
        base = service.base_url
        status, job = call(base + "/jobs", "POST", dict(EDGES_BODY, job_id="alpha"))
        assert status == 201
        assert job["job_id"] == "alpha"
        assert job["state"] in ("queued", "running")
        assert job["preset"] == "fast"

        status, listing = call(base + "/jobs")
        assert status == 200
        assert [j["job_id"] for j in listing["jobs"]] == ["alpha"]

        status, view = call(base + "/jobs/alpha")
        assert status == 200
        assert "progress" in view and 0.0 <= view["progress"]["progress"] <= 1.0

    def test_delete_cancels_midrun_job(self):
        started = threading.Event()

        class Cooperative:
            name = "cooperative"

            def run(self, graph, config, *, num_ranks=1, run_context=None):
                context = run_context or RunContext()
                started.set()
                while not context.should_stop():
                    time.sleep(0.005)
                return SimpleNamespace(runtime_seconds=0.0, phase_seconds={},
                                       metadata={"stopped": context.stop_reason})

        executor = JobExecutor(max_workers=1, record_runs=False)
        with PartitionService(executor=executor) as svc:
            executor.submit(_tiny_graph(), strategy=Cooperative(), job_id="spinner")
            assert started.wait(timeout=10)
            status, payload = call(svc.base_url + "/jobs/spinner", "DELETE")
            assert status == 200
            finished = executor.wait("spinner", timeout=30)
            assert finished.state == "cancelled"
            status, view = call(svc.base_url + "/jobs/spinner")
            assert view["state"] == "cancelled"
        executor.shutdown()

    def test_delete_queued_job_cancels_before_it_runs(self):
        release = threading.Event()
        log = []

        class Gated:
            name = "gated"

            def __init__(self, tag):
                self.tag = tag

            def run(self, graph, config, *, num_ranks=1, run_context=None):
                log.append(self.tag)
                release.wait(timeout=30)
                return SimpleNamespace(runtime_seconds=0.0, phase_seconds={})

        executor = JobExecutor(max_workers=1, record_runs=False)
        with PartitionService(executor=executor) as svc:
            executor.submit(_tiny_graph(), strategy=Gated("blocker"), job_id="blocker")
            time.sleep(0.1)
            executor.submit(_tiny_graph(), strategy=Gated("victim"), job_id="victim")
            status, payload = call(svc.base_url + "/jobs/victim", "DELETE")
            assert status == 200
            assert payload["state"] == "cancelled"
            release.set()
            executor.wait("blocker", timeout=30)
        executor.shutdown()
        assert log == ["blocker"]

    def test_metrics_consistent_with_job_listing(self, service):
        base = service.base_url
        for i in range(3):
            status, _ = call(base + "/jobs", "POST", dict(EDGES_BODY, job_id=f"m{i}"))
            assert status == 201
        for i in range(3):
            service.executor.wait(f"m{i}", timeout=60)
        status, metrics = call(base + "/metrics")
        assert status == 200
        status, listing = call(base + "/jobs")
        by_state = {}
        for job in listing["jobs"]:
            by_state[job["state"]] = by_state.get(job["state"], 0) + 1
        assert metrics["jobs_total"] == len(listing["jobs"]) == 3
        for state, count in by_state.items():
            assert metrics["states"][state] == count
        assert metrics["finished"] == 3
        assert metrics["latency_seconds"]["count"] == 3.0
        assert metrics["latency_seconds"]["p50"] <= metrics["latency_seconds"]["p99"]
        assert metrics["max_workers"] == 2


class TestEndToEndAcceptance:
    def test_served_result_is_bit_identical_to_direct_run(self, hard_graph, fast_config):
        """The PR's acceptance bar: POST a persisted graph + explicit config,
        watch progress increase monotonically with finite ETAs, then fetch a
        result bit-identical (float-hex DL, assignment, history) to a direct
        ``partition()`` with the same config/seed."""
        direct = partition(hard_graph, strategy="sequential", config=fast_config)

        with PartitionService(max_workers=1, record_runs=False) as svc:
            base = svc.base_url
            status, job = call(base + "/jobs", "POST", {
                "job_id": "acceptance",
                "graph": graph_to_dict(hard_graph),
                "config": fast_config.to_dict(),
            })
            assert status == 201, job

            fractions = []
            while True:
                status, view = call(base + "/jobs/acceptance")
                assert status == 200
                progress = view["progress"]
                fractions.append(progress["progress"])
                if progress["eta_seconds"] is not None:
                    assert np.isfinite(progress["eta_seconds"])
                if view["state"] not in ("queued", "running"):
                    break
                time.sleep(0.02)

            assert view["state"] == "succeeded"
            # Monotonically non-decreasing, ending at exactly 1.0.
            assert fractions == sorted(fractions)
            assert fractions[-1] == 1.0

            status, payload = call(base + "/jobs/acceptance/result")
            assert status == 200
            served = SBPResult.from_dict(payload)

        assert served.description_length == direct.description_length
        assert float.fromhex(payload["description_length_hex"]) == direct.description_length
        assert np.array_equal(served.assignment, direct.assignment)
        assert len(served.history) == len(direct.history)
        for ours, theirs in zip(served.history, direct.history):
            assert ours.description_length == theirs.description_length
            assert ours.num_blocks == theirs.num_blocks

    def test_result_without_graph_payload(self, service):
        base = service.base_url
        status, _ = call(base + "/jobs", "POST", dict(EDGES_BODY, job_id="slim"))
        assert status == 201
        service.executor.wait("slim", timeout=60)
        status, payload = call(base + "/jobs/slim/result?include_graph=0")
        assert status == 200
        assert payload["graph_included"] is False
        # Reload against the original graph still round-trips.
        graph = _tiny_graph()
        result = SBPResult.from_dict(payload, graph=graph)
        assert result.assignment.shape == (graph.num_vertices,)
