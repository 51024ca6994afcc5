"""End-to-end tests for the HTTP/JSON API (the ISSUE acceptance bar).

A live threading server on an ephemeral port, driven through
:class:`~repro.service.client.ServiceClient`:

(a) an HTTP-submitted job returns centers/value bit-identical to the
    equivalent direct :func:`repro.api.solve_kcenter` call;
(b) resubmitting the same job is served from the result cache
    (``/stats`` hit counter) without re-running the solver;
(c) 8 concurrent submissions against ``queue_limit=4`` either complete
    or are rejected with HTTP 429 — no deadlock, no dropped jobs;
(d) ``GET /jobs/<id>/trace`` returns a non-empty obs trace.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import solve_kcenter
from repro.service import ServiceClient, ServiceError, serve
from repro.service.http import run_in_thread
from repro.service.runner import JobCancelled


@pytest.fixture
def server():
    srv = serve(port=0, workers=1, queue_limit=4, backend="serial")
    run_in_thread(srv)
    yield srv
    srv.shutdown_service()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


@pytest.fixture
def points():
    return np.random.default_rng(7).normal(scale=3.0, size=(200, 2))


class TestHealthAndStats:
    def test_healthz_reports_version(self, client):
        from repro import __version__

        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["workers"] == 1 and health["queue_limit"] == 4

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["cache"]["hits_total"] == 0
        assert "jobs_by_algorithm" in stats

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404


class TestDatasets:
    def test_register_and_fetch(self, client, points):
        ds = client.register_points(points)
        assert ds["n"] == 200 and ds["id"].startswith("ds-")
        assert client.dataset(ds["id"])["fingerprint"] == ds["fingerprint"]
        assert any(d["id"] == ds["id"] for d in client.datasets())

    def test_register_workload(self, client):
        ds = client.register_workload("gaussian", 150, seed=1)
        assert ds["kind"] == "workload" and ds["n"] == 150

    def test_bad_dataset_bodies(self, client):
        for body, status in [
            ({}, 400),
            ({"workload": "gaussian"}, 400),          # missing n
            ({"workload": "bogus", "n": 10}, 400),    # unknown workload
            ({"points": [[0, 0]], "zap": 1}, 400),    # unknown field
        ]:
            with pytest.raises(ServiceError) as exc:
                client._request("POST", "/datasets", body)
            assert exc.value.status == status

    def test_same_points_different_metric_distinct_over_http(self, client, points):
        # regression: the fingerprint must cover the metric, or the
        # second registration silently reuses the first dataset and
        # every manhattan job runs (and cache-serves) euclidean
        eu = client.register_points(points, metric="euclidean")
        man = client.register_points(points, metric="manhattan")
        assert eu["id"] != man["id"]
        assert eu["fingerprint"] != man["fingerprint"]
        assert client.dataset(man["id"])["metric"] == "ManhattanMetric"

    def test_unknown_dataset_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.dataset("ds-missing")
        assert exc.value.status == 404


class TestJobsEndToEnd:
    def test_http_result_bit_identical_to_direct_call(self, client, points):
        """Acceptance (a)."""
        ds = client.register_points(points)
        job = client.submit(algorithm="kcenter", dataset=ds["id"], k=8,
                            eps=0.2, seed=11, machines=4)
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"])
        assert done["state"] == "done"

        direct = solve_kcenter(points, k=8, eps=0.2, seed=11, machines=4)
        record = done["result"]["record"]
        assert record["radius"] == direct.radius
        assert record["centers"] == [int(c) for c in direct.centers]
        assert record["rounds"] == direct.rounds

    def test_resubmission_served_from_cache(self, client, points):
        """Acceptance (b)."""
        ds = client.register_points(points)
        spec = dict(algorithm="kcenter", dataset=ds["id"], k=5, eps=0.2, seed=1)
        first = client.wait(client.submit(**spec)["id"])
        hits_before = client.stats()["cache"]["hits_total"]

        second = client.submit(**spec)
        # a cache hit completes at submission time — no queue, no solver
        assert second["state"] == "done" and second["cached"] is True
        assert second["result"] == first["result"]
        assert client.stats()["cache"]["hits_total"] == hits_before + 1

    def test_concurrent_burst_respects_queue_limit(self, server, client, points):
        """Acceptance (c): 8 concurrent submissions, queue_limit=4 —
        every one either completes or gets a clean 429."""
        ds = client.register_points(points)
        manager = server.manager
        manager.pause()
        time.sleep(0.3)  # let the worker park so nothing drains mid-burst

        def submit(seed: int):
            try:
                return "ok", client.submit(algorithm="kcenter", dataset=ds["id"],
                                           k=4, eps=0.3, seed=seed)
            except ServiceError as exc:
                return "rejected", exc

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(submit, range(8)))
        finally:
            manager.resume()

        accepted = [job for kind, job in outcomes if kind == "ok"]
        rejected = [exc for kind, exc in outcomes if kind == "rejected"]
        assert len(accepted) + len(rejected) == 8
        assert len(accepted) == 4, "queue_limit=4 with a parked worker"
        assert all(exc.status == 429 for exc in rejected)

        # no deadlock, no dropped jobs: every accepted job terminates
        for job in accepted:
            assert client.wait(job["id"], timeout=120)["state"] == "done"

    def test_trace_endpoint_nonempty(self, client, points):
        """Acceptance (d)."""
        ds = client.register_points(points)
        done = client.wait(
            client.submit(algorithm="kcenter", dataset=ds["id"], k=4)["id"]
        )
        trace = client.trace(done["id"])
        spans = [e for e in trace["traceEvents"] if e.get("cat") == "span"]
        assert spans, "a completed job must have a non-empty phase trace"
        assert trace["otherData"]["job"] == done["id"]

        jsonl = client.trace(done["id"], fmt="jsonl")
        lines = [json.loads(line) for line in jsonl.splitlines()]
        assert lines[0]["type"] == "meta"
        assert any(line["type"] == "span" for line in lines)

    def test_trace_before_completion_409(self, server, client, points):
        ds = client.register_points(points)
        server.manager.pause()
        time.sleep(0.2)
        try:
            job = client.submit(algorithm="kcenter", dataset=ds["id"], k=4,
                                seed=123)
            with pytest.raises(ServiceError) as exc:
                client.trace(job["id"])
            assert exc.value.status == 409
        finally:
            server.manager.resume()

    def test_cancel_queued_job_via_http(self, server, client, points):
        ds = client.register_points(points)
        server.manager.pause()
        time.sleep(0.2)
        try:
            job = client.submit(algorithm="kcenter", dataset=ds["id"], k=4,
                                seed=321)
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
        finally:
            server.manager.resume()
        assert client.job(job["id"])["state"] == "cancelled"

    def test_cancel_done_job_409(self, client, points):
        ds = client.register_points(points)
        done = client.wait(
            client.submit(algorithm="kcenter", dataset=ds["id"], k=3)["id"]
        )
        with pytest.raises(ServiceError) as exc:
            client.cancel(done["id"])
        assert exc.value.status == 409

    def test_cancel_running_job_via_http(self, monkeypatch, points):
        started = threading.Event()

        def run_until_cancelled(spec, dataset, **kwargs):
            started.set()
            if not kwargs["cancel_event"].wait(timeout=30):
                raise AssertionError("the cancel request never reached the run")
            raise JobCancelled()

        monkeypatch.setattr("repro.service.jobs.execute_job", run_until_cancelled)
        srv = serve(port=0, workers=1)
        run_in_thread(srv)
        try:
            client = ServiceClient(srv.url, timeout=30.0)
            ds = client.register_points(points)
            job = client.submit(algorithm="kcenter", dataset=ds["id"], k=3)
            assert started.wait(timeout=30)
            assert client.cancel(job["id"])["id"] == job["id"]  # 200
            assert client.wait(job["id"], timeout=30)["state"] == "cancelled"
            # the stored request keeps a repeated DELETE idempotent
            assert client.cancel(job["id"])["state"] == "cancelled"
        finally:
            srv.shutdown_service()

    def test_job_listing_and_state_filter(self, client, points):
        ds = client.register_points(points)
        done = client.wait(
            client.submit(algorithm="diversity", dataset=ds["id"], k=4)["id"]
        )
        assert any(j["id"] == done["id"] for j in client.jobs())
        assert any(j["id"] == done["id"] for j in client.jobs(state="done"))
        with pytest.raises(ServiceError) as exc:
            client.jobs(state="bogus")
        assert exc.value.status == 400

    def test_invalid_job_bodies(self, client, points):
        ds = client.register_points(points)
        for body in [
            {},
            {"algorithm": "kcenter"},                             # no dataset
            {"algorithm": "warp", "dataset": ds["id"]},           # bad algo
            {"algorithm": "kcenter", "dataset": ds["id"], "k": 0},
            {"algorithm": "kcenter", "dataset": ds["id"], "k": 3, "zap": 1},
            {"algorithm": "kcenter", "dataset": ds["id"], "k": 10**6},
        ]:
            with pytest.raises(ServiceError) as exc:
                client._request("POST", "/jobs", body)
            assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.submit(algorithm="kcenter", dataset="ds-missing", k=2)
        assert exc.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.job("job-999999")
        assert exc.value.status == 404

    def test_client_solve_convenience(self, client, points):
        done = client.solve(points, algorithm="kcenter", k=6, eps=0.2, seed=2)
        direct = solve_kcenter(points, k=6, eps=0.2, seed=2)
        assert done["result"]["record"]["radius"] == direct.radius


class TestServeWiring:
    def test_connection_bursts_are_not_dropped(self, server):
        """16 clients connecting at once all fit the listen backlog; a
        dropped connection would stall a second in SYN retransmit."""
        url = server.url + "/v1/healthz"
        for _ in range(3):
            barrier = threading.Barrier(16)

            def probe():
                barrier.wait()
                t0 = time.perf_counter()
                with urllib.request.urlopen(url, timeout=10) as resp:
                    resp.read()
                return time.perf_counter() - t0

            with ThreadPoolExecutor(max_workers=16) as pool:
                latencies = list(pool.map(lambda _: probe(), range(16)))
            assert max(latencies) < 0.9, latencies

    def test_ephemeral_port_and_clean_shutdown(self):
        srv = serve(port=0, workers=1)
        thread = run_in_thread(srv)
        ServiceClient(srv.url).healthz()
        srv.shutdown_service()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_workload_job_over_http(self, client):
        ds = client.register_workload("clustered", 160, seed=4)
        done = client.wait(
            client.submit(algorithm="kcenter", dataset=ds["id"], k=8)["id"]
        )
        assert done["result"]["record"]["radius"] > 0

    def test_concurrent_distinct_jobs_all_complete(self, client, points):
        """Burst under the limit: all jobs run, results stay per-seed
        deterministic (no cross-job state bleed through the shared
        dataset metric)."""
        ds = client.register_points(points)
        jobs = {}
        for seed in (1, 2):
            jobs[seed] = client.submit(algorithm="kcenter", dataset=ds["id"],
                                       k=5, eps=0.25, seed=seed)["id"]
        for seed, job_id in jobs.items():
            got = client.wait(job_id)["result"]["record"]
            direct = solve_kcenter(points, k=5, eps=0.25, seed=seed)
            assert got["radius"] == direct.radius
            assert got["centers"] == [int(c) for c in direct.centers]


def test_threading_server_handles_parallel_polling(server, points):
    """Many clients polling while a job runs must not wedge the server."""
    client = ServiceClient(server.url)
    ds = client.register_points(points)
    job = client.submit(algorithm="kcenter", dataset=ds["id"], k=6, seed=9)

    stop = threading.Event()
    errors = []

    def poll():
        while not stop.is_set():
            try:
                client.healthz()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    pollers = [threading.Thread(target=poll, daemon=True) for _ in range(4)]
    for t in pollers:
        t.start()
    try:
        assert client.wait(job["id"])["state"] == "done"
    finally:
        stop.set()
        for t in pollers:
            t.join(timeout=5)
    assert not errors
