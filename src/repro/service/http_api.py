"""The HTTP/JSON API over the job executor (stdlib ``http.server`` only).

Endpoints::

    POST   /jobs              submit a job (graph + config/preset/overrides)
    GET    /jobs              list all jobs (status views)
    GET    /jobs/{id}         one job's status + live progress/ETA
    GET    /jobs/{id}/result  the finished SBPResult as persisted JSON
    DELETE /jobs/{id}         cancel (queued: immediate; running: cooperative)
    GET    /healthz           liveness probe
    GET    /metrics           queue depth, per-state counters, latencies

Errors are structured JSON — ``{"error": {"status", "message", "field"?}}`` —
with ``field`` naming the offending request field for 400s, following the
construction-time validation idiom of the config and registry layers.  The
result payload is byte-compatible with ``SBPResult.save``: a client can
write the response body to disk and ``SBPResult.load`` it bit-exactly.

:class:`PartitionService` bundles an executor, a
``ThreadingHTTPServer`` bound to an ephemeral (or fixed) port, and the
serving thread — the in-process harness the tests, the demo, and
``scripts/serve.py`` all share.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.executor import JobExecutor
from repro.service.job import JobState
from repro.service.schemas import ValidationError, validate_job_request

__all__ = ["ApiError", "PartitionService", "create_server"]

#: Largest request body the server reads; bigger ones are refused with 413.
MAX_BODY_BYTES = 64 * 2**20


class ApiError(Exception):
    """An HTTP-level failure carrying its status code (and offending field)."""

    def __init__(self, status: int, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.field = field

    def to_payload(self) -> Dict[str, object]:
        error: Dict[str, object] = {"status": self.status, "message": str(self)}
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


class _JobRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`JobExecutor`."""

    server_version = "repro-partition-service/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Verb entry points
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, verb: str) -> None:
        try:
            status, payload = self._route(verb)
        except ApiError as exc:
            status, payload = exc.status, exc.to_payload()
        except ValidationError as exc:
            status, payload = 400, ApiError(400, str(exc), field=exc.field).to_payload()
        except Exception as exc:  # noqa: BLE001 - never let the socket die bare
            status, payload = 500, ApiError(500, f"{type(exc).__name__}: {exc}").to_payload()
        self._send_json(status, payload)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, verb: str) -> Tuple[int, Dict[str, object]]:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        executor: JobExecutor = self.server.executor  # type: ignore[attr-defined]

        if verb == "GET" and parts == ["healthz"]:
            return 200, {"status": "ok"}
        if verb == "GET" and parts == ["metrics"]:
            return 200, executor.metrics()
        if parts and parts[0] == "jobs":
            if verb == "POST" and len(parts) == 1:
                return self._submit(executor)
            if verb == "GET" and len(parts) == 1:
                return 200, {"jobs": [job.to_dict() for job in executor.jobs()]}
            if len(parts) >= 2:
                job_id = parts[1]
                if verb == "GET" and len(parts) == 2:
                    return self._status(executor, job_id)
                if verb == "GET" and len(parts) == 3 and parts[2] == "result":
                    return self._result(executor, job_id, query)
                if verb == "DELETE" and len(parts) == 2:
                    return self._cancel(executor, job_id)
        raise ApiError(404, f"no route for {verb} {split.path}")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _submit(self, executor: JobExecutor) -> Tuple[int, Dict[str, object]]:
        request = validate_job_request(self._read_json_body())
        try:
            job = executor.submit(
                request.graph,
                job_id=request.job_id,
                strategy=request.strategy,
                config=request.config,
                num_ranks=request.num_ranks,
                priority=request.priority,
                timeout=request.timeout,
                checkpoint_every=request.checkpoint_every,
                preset=request.preset,
            )
        except ValueError as exc:
            # Duplicate client-supplied job id (or checkpointing without a
            # checkpoint_dir) — a conflict with server state, not a bad body.
            raise ApiError(409, str(exc), field="job_id" if "job_id" in str(exc) else None) from exc
        return 201, job.to_dict()

    def _get_job(self, executor: JobExecutor, job_id: str):
        try:
            return executor.get(job_id)
        except KeyError as exc:
            raise ApiError(404, f"unknown job {job_id!r}") from exc

    def _status(self, executor: JobExecutor, job_id: str) -> Tuple[int, Dict[str, object]]:
        job = self._get_job(executor, job_id)
        payload = job.to_dict()
        payload["progress"] = executor.progress(job_id).to_dict()
        return 200, payload

    def _result(self, executor: JobExecutor, job_id: str, query) -> Tuple[int, Dict[str, object]]:
        job = self._get_job(executor, job_id)
        if not job.done:
            raise ApiError(
                409, f"job {job_id!r} is still {job.state!r}; the result is not available yet"
            )
        if job.result is None:
            raise ApiError(
                409,
                f"job {job_id!r} finished {job.state!r} without a result"
                + (f": {job.error}" if job.error else ""),
            )
        include_graph = query.get("include_graph", ["1"])[0] not in ("0", "false", "no")
        return 200, job.result.to_dict(include_graph=include_graph)

    def _cancel(self, executor: JobExecutor, job_id: str) -> Tuple[int, Dict[str, object]]:
        self._get_job(executor, job_id)
        job = executor.cancel(job_id)
        return 200, job.to_dict()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_json_body(self) -> object:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # The body's extent is unknown, so its bytes cannot be skipped.
            self.close_connection = True
            raise ApiError(400, f"Content-Length must be a non-negative integer, got {header!r}",
                           field="Content-Length")
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(413, f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte limit",
                           field="Content-Length")
        if length == 0:
            raise ApiError(400, "request body is required", field="body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}", field="body") from exc

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging; metrics carry the signal."""


def create_server(
    executor: JobExecutor, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ``ThreadingHTTPServer`` bound to ``host:port`` serving ``executor``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``).  The caller owns both server and executor
    lifecycles; :class:`PartitionService` bundles them.
    """
    server = ThreadingHTTPServer((host, port), _JobRequestHandler)
    server.executor = executor  # type: ignore[attr-defined]
    return server


class PartitionService:
    """Executor + HTTP server + serving thread, as one start/stoppable unit.

    Parameters mirror :class:`JobExecutor`; the server binds ``host:port``
    (``port=0`` = ephemeral).  Usable as a context manager::

        with PartitionService(max_workers=2) as service:
            requests.post(service.base_url + "/jobs", json=...)
    """

    def __init__(
        self,
        executor: Optional[JobExecutor] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **executor_kwargs,
    ) -> None:
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else JobExecutor(**executor_kwargs)
        self.server = create_server(self.executor, host=host, port=port)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PartitionService":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever, name="partition-service", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, cancel_pending: bool = False) -> None:
        """Stop serving, then drain (or cancel) the executor."""
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._owns_executor:
            self.executor.shutdown(wait=True, cancel_pending=cancel_pending)

    def __enter__(self) -> "PartitionService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(cancel_pending=exc_type is not None)
