"""Stdlib-only HTTP/JSON API over the job manager.

No framework, no new runtime dependency: a
:class:`http.server.ThreadingHTTPServer` whose handler parses JSON
bodies and dispatches on ``(method, path)``.  The API is versioned —
every route lives under ``/v1``:

========  ==============================  ========================================
method    path                            meaning
========  ==============================  ========================================
POST      ``/v1/datasets``                register a workload or uploaded points
GET       ``/v1/datasets``                list registered datasets
GET       ``/v1/datasets/<id>``           one dataset's summary
POST      ``/v1/datasets/<id>/append``    grow a dataset: mint a chained version
GET       ``/v1/datasets/<id>/chain``     the version chain, root first
POST      ``/v1/jobs``                    submit a job (``429`` when queue is full)
GET       ``/v1/jobs``                    list jobs (``?state=&limit=&cursor=``)
GET       ``/v1/jobs/<id>``               job status + result when done
DELETE    ``/v1/jobs/<id>``               cancel (queued: now; running: next round)
GET       ``/v1/jobs/<id>/trace``         the run's trace (``?format=chrome|jsonl``)
POST      ``/v1/analyses``                submit an analysis sweep (a grid of jobs)
GET       ``/v1/analyses``                list analyses (``?state=&limit=&cursor=``)
GET       ``/v1/analyses/<id>``           analysis status + cell job ids
GET       ``/v1/analyses/<id>/report``    the ranked report (``409`` until done)
GET       ``/v1/healthz``                 liveness + version + role
GET       ``/v1/stats``                   queue depth, cache ratio, per-algo counts
GET       ``/v1/metrics``                 Prometheus text (see docs/metrics.md)
========  ==============================  ========================================

An unversioned path (``/jobs``, …) answers ``404`` ``no_route``.
``GET /v1/jobs`` paginates: ``?limit=`` caps the page and the
response's ``next_cursor`` (the last job id of the page) feeds the
next request's ``?cursor=``; ordering is stable by submit time.

Every 4xx/5xx body is the uniform envelope
``{"error": {"code", "message", "request_id"}}`` — ``code`` is
machine-readable (``invalid_request``, ``unknown_dataset``,
``unknown_job``, ``no_route``, ``conflict``, ``metric_mismatch``,
``not_appendable``, ``payload_too_large``, ``queue_full``,
``injected_fault``, ``unavailable``, ``internal``) and
is what :class:`~repro.service.client.ServiceClient` keys its retry
decisions off; ``request_id`` is the trace id echoed in
``X-Request-Id``.  Build and start one with :func:`serve`; tests pass
``port=0`` for an ephemeral port and drive the client against
``server.url``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro._version import __version__
from repro.faults import FaultPlan
from repro.obs.export import trace_payload
from repro.obs.logging import get_logger
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.obs.tracing import TraceContext, use_trace
from repro.service.datasets import (
    DatasetRegistry,
    MetricMismatchError,
    NotAppendableError,
    UnknownDatasetError,
)
from repro.service.jobs import JobManager, JobState, QueueFullError, RetryPolicy, UnknownJobError
from repro.service.spec import JobSpec
from repro.service.store import ANALYSIS_STATES, UnknownAnalysisError, open_stores
# bound as a module, its names looked up at call time: importing
# repro.sweeps imports this module (through repro.service.store and the
# repro.service package), so it may still be initializing here
import repro.sweeps as sweeps_mod

#: request body cap (64 MiB ≈ 4M points × 2 dims as JSON) — a service
#: guard, not a scaling claim; bulk ingestion is a later PR's shard API
MAX_BODY_BYTES = 64 * 1024 * 1024

#: the current (and only) API version segment
API_VERSION = "v1"

#: page-size ceiling for ``GET /v1/jobs``
MAX_PAGE_LIMIT = 1000

#: default machine-readable error code per status, for errors raised
#: without an explicit code
_STATUS_CODES = {
    400: "invalid_request",
    404: "not_found",
    409: "conflict",
    413: "payload_too_large",
    429: "queue_full",
    500: "internal",
    503: "unavailable",
}

_log = get_logger("repro.service.http")


class ApiError(Exception):
    """HTTP-visible failure: ``(status, message, code)``.

    ``code`` is the machine-readable identifier carried in the error
    envelope (defaulted from the status when not given) — clients
    branch on it, never on the human-facing message text.
    """

    def __init__(self, status: int, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code if code is not None else _STATUS_CODES.get(status, "error")


class ClusteringServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the service state.

    When a fault plan with an active service layer is installed, the
    server injects synthetic ``429``/``503`` responses (with
    ``Retry-After``) and dropped connections, deterministically per
    request number — ``/healthz`` is exempt so liveness probes stay
    honest.  Injections are counted for ``/stats`` and the
    ``degraded`` health status.
    """

    daemon_threads = True
    #: listen backlog; socketserver's default of 5 drops connections in
    #: a burst of more concurrent clients, and each dropped one stalls
    #: about a second in the kernel's SYN retransmit
    request_queue_size = 128

    def __init__(self, address, handler, manager: JobManager, faults=None,
                 sweeps: Optional[sweeps_mod.SweepManager] = None) -> None:
        super().__init__(address, handler)
        self.manager = manager
        self.sweeps = sweeps if sweeps is not None else sweeps_mod.SweepManager(manager)
        #: wall stamp for display; interval math (uptime, health
        #: windows) uses the monotonic twin below
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self.faults: Optional[FaultPlan] = FaultPlan.from_spec(faults)
        self._request_counter = itertools.count()
        self._fault_lock = threading.Lock()
        self.faults_injected = 0
        self.last_fault_at: Optional[float] = None
        self._last_fault_mono: Optional[float] = None

    def next_request_no(self) -> int:
        return next(self._request_counter)

    def uptime_s(self) -> float:
        """Seconds since construction, on the monotonic clock — a wall
        reset cannot make uptime jump or go negative."""
        return time.monotonic() - self._started_mono

    def record_injection(self) -> None:
        with self._fault_lock:
            self.faults_injected += 1
            self.last_fault_at = time.time()
            self._last_fault_mono = time.monotonic()

    def recent_fault_activity(self, window_s: float = 60.0) -> bool:
        with self._fault_lock:
            last = self._last_fault_mono
        return last is not None and (time.monotonic() - last) <= window_s

    def sync_metrics(self) -> MetricsRegistry:
        """Mirror manager + HTTP-layer tallies into the metrics registry
        (called right before every scrape; see
        :meth:`~repro.service.jobs.JobManager.sync_metrics`)."""
        registry = self.manager.sync_metrics()
        self.sweeps.sync_metrics()
        registry.counter(
            "repro_service_faults_injected_total",
            "synthetic HTTP faults injected by the active plan",
        ).set_total(self.faults_injected)
        return registry

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_service(self, wait: bool = True) -> None:
        """Stop accepting requests, then stop the worker pool."""
        self.shutdown()
        self.server_close()
        self.sweeps.stop(wait=wait)
        self.manager.stop(wait=wait)


class _Handler(BaseHTTPRequestHandler):
    server: ClusteringServiceServer
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"

    #: this request's trace context: the parsed ``traceparent`` child,
    #: or a freshly minted root (set at the top of ``_dispatch``)
    trace_ctx: Optional[TraceContext] = None

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the structured access log is written by _dispatch

    def _trace_headers(self) -> None:
        """Echo the request's identity on every response: the trace id
        doubles as the server-assigned request id, so a client error
        message is directly greppable in the server's log."""
        ctx = self.trace_ctx
        if ctx is not None:
            self.send_header("X-Request-Id", ctx.trace_id)
            self.send_header("traceparent", ctx.to_traceparent())

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self._trace_headers()
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _error_envelope(self, status: int, message: str, code: Optional[str]) -> dict:
        """The uniform error body every 4xx/5xx carries."""
        return {
            "error": {
                "code": code if code is not None else _STATUS_CODES.get(status, "error"),
                "message": message,
                "request_id": (
                    self.trace_ctx.trace_id if self.trace_ctx is not None else None
                ),
            }
        }

    def _send_error(self, status: int, message: str, code: Optional[str] = None) -> None:
        self._send_json(status, self._error_envelope(status, message, code))

    def _send_text(self, status: int, content_type: str, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._trace_headers()
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ApiError(400, "a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ApiError(400, "the JSON body must be an object")
        return payload

    def _route(self) -> Tuple[str, list, dict]:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path, parts, query

    def _inject_fault(self, parts: list) -> bool:
        """Consult the service fault plan; returns True when this
        request was consumed by an injected fault."""
        plan = self.server.faults
        # /healthz and /metrics are exempt: liveness probes and scrapes
        # must stay honest even mid-storm
        if plan is None or not plan.service_active or parts in (["healthz"], ["metrics"]):
            return False
        fault = plan.service_fault(self.server.next_request_no())
        if fault is None:
            return False
        kind, status = fault
        self.server.record_injection()
        if kind == "drop":
            # vanish mid-flight: close without writing a byte, like a
            # crashed proxy — the client sees a torn connection
            self.close_connection = True
            return True
        payload = self._error_envelope(
            status, f"injected fault: synthetic {status}", "injected_fault"
        )
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Retry-After", f"{plan.retry_after_s:g}")
        self.send_header("Content-Length", str(len(body)))
        self._trace_headers()
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        return True

    def _dispatch(self, method: str) -> None:
        # parse the W3C traceparent (if any) and mint this request's
        # context: a child of the caller's span, or a fresh root —
        # either way every response carries X-Request-Id/traceparent
        incoming = TraceContext.from_traceparent(self.headers.get("traceparent"))
        self.trace_ctx = (
            incoming.child("http") if incoming is not None
            else TraceContext.generate()
        )
        self._status: Optional[int] = None
        t0 = time.monotonic()
        try:
            with use_trace(self.trace_ctx):
                self._dispatch_traced(method)
        finally:
            extra = {"method": method, "path": self.path,
                     "status": self._status,
                     "duration_ms": round((time.monotonic() - t0) * 1e3, 3),
                     "trace_id": self.trace_ctx.trace_id,
                     "span_id": self.trace_ctx.span_id}
            _log.info("http request", extra=extra)

    def _dispatch_traced(self, method: str) -> None:
        try:
            raw_path, parts, query = self._route()
            if parts[:1] != [API_VERSION]:
                raise ApiError(404, f"no route for {method} {raw_path}", "no_route")
            parts = parts[1:]
            if self._inject_fault(parts):
                return
            handler = self._resolve(method, parts)
            handler(parts, query)
        except ApiError as exc:
            self._send_error(exc.status, exc.message, exc.code)
        except UnknownDatasetError as exc:
            self._send_error(404, f"unknown dataset: {exc.args[0]}", "unknown_dataset")
        except MetricMismatchError as exc:
            self._send_error(409, str(exc), "metric_mismatch")
        except NotAppendableError as exc:
            self._send_error(409, str(exc), "not_appendable")
        except UnknownJobError as exc:
            self._send_error(404, f"unknown job: {exc.args[0]}", "unknown_job")
        except UnknownAnalysisError as exc:
            self._send_error(
                404, f"unknown analysis: {exc.args[0]}", "unknown_analysis"
            )
        except sweeps_mod.AnalysisNotReady as exc:
            self._send_error(409, str(exc), "conflict")
        except QueueFullError as exc:
            self._send_error(429, str(exc), "queue_full")
        except ValueError as exc:
            self._send_error(400, str(exc), "invalid_request")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_error(500, f"internal error: {exc!r}", "internal")

    def _resolve(self, method: str, parts: list):
        if method == "GET":
            if parts == ["healthz"]:
                return self._get_healthz
            if parts == ["stats"]:
                return self._get_stats
            if parts == ["metrics"]:
                return self._get_metrics
            if parts == ["datasets"]:
                return self._get_datasets
            if len(parts) == 2 and parts[0] == "datasets":
                return self._get_dataset
            if len(parts) == 3 and parts[0] == "datasets" and parts[2] == "chain":
                return self._get_dataset_chain
            if parts == ["jobs"]:
                return self._get_jobs
            if len(parts) == 2 and parts[0] == "jobs":
                return self._get_job
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                return self._get_trace
            if parts == ["analyses"]:
                return self._get_analyses
            if len(parts) == 2 and parts[0] == "analyses":
                return self._get_analysis
            if len(parts) == 3 and parts[0] == "analyses" and parts[2] == "report":
                return self._get_analysis_report
        elif method == "POST":
            if parts == ["datasets"]:
                return self._post_datasets
            if len(parts) == 3 and parts[0] == "datasets" and parts[2] == "append":
                return self._post_dataset_append
            if parts == ["jobs"]:
                return self._post_jobs
            if parts == ["analyses"]:
                return self._post_analyses
        elif method == "DELETE":
            if len(parts) == 2 and parts[0] == "jobs":
                return self._delete_job
        raise ApiError(404, f"no route for {method} /{'/'.join(parts)}", "no_route")

    # -- HTTP verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- routes -------------------------------------------------------------

    def _get_healthz(self, parts, query) -> None:
        manager = self.server.manager
        mstats = manager.stats()
        degraded_because = []
        if manager.recent_retry_activity():
            degraded_because.append("job retries in the last 60s")
        if manager.recent_orphan_activity():
            degraded_because.append("orphaned jobs recovered in the last 60s")
        if self.server.recent_fault_activity():
            degraded_because.append("injected service faults in the last 60s")
        stuck = mstats.get("stuck_workers", [])
        if stuck:
            degraded_because.append(f"stuck worker(s): {', '.join(stuck)}")
        remote = manager.remote_status()
        pool = (remote or {}).get("pool")
        if pool is not None:
            if pool.get("fallback_reason"):
                degraded_because.append(
                    f"remote pool degraded: {pool['fallback_reason']}"
                )
            elif pool.get("alive", 0) < pool.get("configured", 0):
                dead = {
                    label: w.get("reason")
                    for label, w in pool.get("workers", {}).items()
                    if not w.get("alive")
                }
                degraded_because.append(
                    "remote workers lost: "
                    + ", ".join(f"{lbl} ({why})" for lbl, why in dead.items())
                )
        payload = {
            "status": "degraded" if degraded_because else "ok",
            "version": __version__,
            "api_version": API_VERSION,
            "uptime_s": self.server.uptime_s(),
            "role": manager.role,
            "workers": manager.workers,
            "backend": manager.backend,
            "store": manager.stores.backend,
            "queue_limit": manager.queue_limit,
            "faults_injected": self.server.faults_injected,
            "retries": mstats["retry"]["retries_total"],
            "orphans_recovered": mstats["orphans"]["orphaned_total"],
        }
        if remote is not None:
            payload["remote"] = remote
        if degraded_because:
            payload["degraded_because"] = degraded_because
        self._send_json(200, payload)

    def _get_stats(self, parts, query) -> None:
        server = self.server
        stats = server.manager.stats()
        stats["datasets"] = len(server.manager.datasets)
        stats["analyses"] = server.sweeps.stats()
        stats["uptime_s"] = server.uptime_s()
        stats["started_at"] = server.started_at
        stats["service_faults"] = {
            "injected_total": server.faults_injected,
            "last_fault_at": server.last_fault_at,
            "plan": server.faults.describe() if server.faults is not None else None,
        }
        stats["metrics"] = server.sync_metrics().snapshot()
        self._send_json(200, stats)

    def _get_metrics(self, parts, query) -> None:
        """Prometheus text exposition of the manager's metrics registry."""
        registry = self.server.sync_metrics()
        self._send_text(200, PROMETHEUS_CONTENT_TYPE, registry.render_prometheus())

    def _post_datasets(self, parts, query) -> None:
        body = self._read_json()
        registry = self.server.manager.datasets
        if "workload" in body:
            extra = set(body) - {"workload", "n", "seed"}
            if extra:
                raise ApiError(400, f"unknown dataset field(s): {sorted(extra)}")
            if "n" not in body:
                raise ApiError(400, "workload datasets need 'n'")
            ds = registry.register_workload(
                body["workload"], body["n"], seed=body.get("seed", 0)
            )
        elif "points" in body:
            extra = set(body) - {"points", "metric"}
            if extra:
                raise ApiError(400, f"unknown dataset field(s): {sorted(extra)}")
            ds = registry.register_points(
                body["points"], metric=body.get("metric", "euclidean")
            )
        else:
            raise ApiError(
                400,
                "a dataset body needs either 'workload' (+ 'n', optional "
                "'seed') or 'points' (+ optional 'metric')",
            )
        self._send_json(201, ds.describe())

    def _post_dataset_append(self, parts, query) -> None:
        """Grow dataset ``parts[1]`` with a batch of points → a new
        chained version (201).  Appending the same bytes twice returns
        the same child — content addressing makes the route idempotent."""
        body = self._read_json()
        extra = set(body) - {"points", "metric"}
        if extra:
            raise ApiError(400, f"unknown append field(s): {sorted(extra)}")
        if "points" not in body:
            raise ApiError(400, "an append body needs 'points' (+ optional 'metric')")
        registry = self.server.manager.datasets
        ds = registry.append(parts[1], body["points"], metric=body.get("metric"))
        self.server.manager.metrics.counter(
            "repro_datasets_appended_total", "dataset append versions minted over HTTP"
        ).inc()
        self._send_json(201, ds.describe())

    def _get_dataset_chain(self, parts, query) -> None:
        chain = self.server.manager.datasets.chain(parts[1])
        self._send_json(200, {"chain": [ds.describe() for ds in chain]})

    def _get_datasets(self, parts, query) -> None:
        self._send_json(200, {"datasets": self.server.manager.datasets.list()})

    def _get_dataset(self, parts, query) -> None:
        self._send_json(200, self.server.manager.datasets.get(parts[1]).describe())

    def _post_jobs(self, parts, query) -> None:
        body = self._read_json()
        spec = JobSpec.from_dict(body)
        job = self.server.manager.submit(spec, trace=self.trace_ctx)
        self._send_json(202, job.describe(include_result=job.cached))

    def _page_params(self, query, id_prefix: str) -> Tuple[Optional[int], Optional[str]]:
        """Validate the shared ``?limit=&cursor=`` pagination params."""
        limit: Optional[int] = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                raise ApiError(400, f"limit must be an integer, got {query['limit']!r}") from None
            if not 1 <= limit <= MAX_PAGE_LIMIT:
                raise ApiError(400, f"limit must be in [1, {MAX_PAGE_LIMIT}], got {limit}")
        cursor = query.get("cursor")
        if cursor is not None and not (
            cursor.startswith(id_prefix) and cursor.rsplit("-", 1)[1].isdigit()
        ):
            raise ApiError(400, f"malformed cursor {cursor!r}; pass the last page's next_cursor")
        return limit, cursor

    def _get_jobs(self, parts, query) -> None:
        state: Optional[JobState] = None
        if "state" in query:
            try:
                state = JobState(query["state"])
            except ValueError:
                raise ApiError(
                    400,
                    f"unknown state {query['state']!r}; expected one of "
                    f"{', '.join(s.value for s in JobState)}",
                ) from None
        limit, cursor = self._page_params(query, "job-")
        records, next_cursor = self.server.manager.list_records(
            state, limit=limit, cursor=cursor
        )
        payload = {"jobs": [rec.describe(include_result=False) for rec in records]}
        if next_cursor is not None:
            payload["next_cursor"] = next_cursor
        self._send_json(200, payload)

    def _get_job(self, parts, query) -> None:
        job = self.server.manager.get(parts[1])
        self._send_json(200, job.describe())

    def _delete_job(self, parts, query) -> None:
        job = self.server.manager.get(parts[1])
        if job.terminal and not job.cancel_requested:
            raise ApiError(409, f"job {job.id} already {job.state}")
        job = self.server.manager.cancel(job.id)
        self._send_json(200, job.describe(include_result=False))

    def _get_trace(self, parts, query) -> None:
        job = self.server.manager.get(parts[1])
        if job.run_log is None:
            raise ApiError(
                409,
                f"job {job.id} has no trace (state: {job.state}); "
                "traces appear when a job completes",
            )
        fmt = query.get("format", "chrome")
        annotations = [
            {"name": "job",
             "args": {"job_id": job.id, "trace_id": job.trace_id,
                      "state": job.state}},
        ]
        if job.cached:
            # the served log is the *producing* run's; mark the hit so
            # the trace says why its ids differ from this job's
            annotations.append(
                {"name": "cache_hit",
                 "args": {"job_id": job.id, "trace_id": job.trace_id}}
            )
        try:
            content_type, body = trace_payload(job.run_log, fmt,
                                               annotations=annotations)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from None
        self._send_text(200, content_type, body)

    def _post_analyses(self, parts, query) -> None:
        body = self._read_json()
        spec = sweeps_mod.SweepSpec.from_dict(body)
        record = self.server.sweeps.submit(spec, trace=self.trace_ctx)
        self._send_json(202, record.describe())

    def _get_analyses(self, parts, query) -> None:
        state = query.get("state")
        if state is not None and state not in ANALYSIS_STATES:
            raise ApiError(
                400,
                f"unknown state {state!r}; expected one of "
                f"{', '.join(ANALYSIS_STATES)}",
            )
        limit, cursor = self._page_params(query, "an-")
        records, next_cursor = self.server.sweeps.list_records(
            state, limit=limit, cursor=cursor
        )
        payload = {"analyses": [rec.describe() for rec in records]}
        if next_cursor is not None:
            payload["next_cursor"] = next_cursor
        self._send_json(200, payload)

    def _get_analysis(self, parts, query) -> None:
        self._send_json(200, self.server.sweeps.get(parts[1]).describe())

    def _get_analysis_report(self, parts, query) -> None:
        self._send_json(200, self.server.sweeps.report(parts[1]))


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    workers: int = 2,
    backend: str = "serial",
    remote_workers=None,
    queue_limit: int = 64,
    default_timeout_s: Optional[float] = None,
    cache_entries: int = 1024,
    max_history: int = 1024,
    max_retries: int = 0,
    state_dir: Optional[str] = None,
    role: str = "all",
    lease_s: float = 15.0,
    faults=None,
    manager: Optional[JobManager] = None,
    start: bool = True,
) -> ClusteringServiceServer:
    """Build (and by default start) the clustering job service.

    Returns the server; the caller owns the accept loop::

        server = serve(port=0)           # ephemeral port
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown_service()

    With no ``state_dir`` the service is a self-contained process on
    volatile in-memory stores.  With one, all state (jobs, queue,
    datasets, results) lives in SQLite + blob files under that
    directory, restarts resume where they stopped, and any number of
    processes sharing the directory form one service — typically one
    ``role='frontend'`` HTTP process plus N ``repro serve --role
    worker`` processes (see ``docs/persistence.md``).  ``lease_s``
    bounds how long a dead worker's running job stays unnoticed.

    Pass a prebuilt ``manager`` to share registries across servers, or
    ``start=False`` to wire the worker pool up manually.  One ``faults``
    plan drives every layer: its service rates are injected by the HTTP
    front-end, its executor/machine rates ride into each solver run via
    the manager.  ``max_retries`` sets the default
    :class:`~repro.service.jobs.RetryPolicy` budget for crashed jobs.
    """
    plan = FaultPlan.from_spec(faults)
    if manager is None:
        stores = open_stores(
            state_dir, queue_limit=queue_limit, cache_entries=cache_entries
        )
        manager = JobManager(
            DatasetRegistry(stores.datasets),
            stores=stores,
            role=role,
            lease_s=lease_s,
            workers=workers,
            backend=backend,
            remote_workers=remote_workers,
            queue_limit=queue_limit,
            default_timeout_s=default_timeout_s,
            max_history=max_history,
            retry_policy=RetryPolicy(max_retries=max_retries),
            faults=plan,
        )
    server = ClusteringServiceServer((host, port), _Handler, manager, faults=plan)
    if start:
        manager.start()
        server.sweeps.start()
    return server


def serve_forever(server: ClusteringServiceServer) -> None:
    """Run the accept loop until interrupted; then shut down cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown_service()


def run_in_thread(server: ClusteringServiceServer) -> threading.Thread:
    """Start the accept loop on a daemon thread (tests, notebooks)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return thread
