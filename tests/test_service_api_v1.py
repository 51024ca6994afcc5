"""The versioned API surface: ``/v1`` routes, the uniform error
envelope, no unversioned paths, and ``GET /v1/jobs`` pagination."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.service import ServiceClient, ServiceError, serve
from repro.service.http import run_in_thread


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
    return np.random.default_rng(5).normal(scale=2.0, size=(80, 2))


def _raw_get(url):
    """(status, headers, parsed-json-body) without the client's sugar."""
    req = urllib.request.Request(url, headers={"Accept": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class TestVersionedRoutes:
    def test_client_defaults_to_v1(self, client, monkeypatch):
        urls = []
        urlopen = urllib.request.urlopen

        def recording_urlopen(req, *args, **kwargs):
            urls.append(req.full_url)
            return urlopen(req, *args, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
        health = client.healthz()
        assert urls == [f"{client.base_url}/v1/healthz"]
        assert health["api_version"] == "v1"
        assert health["role"] == "all"

    def test_all_routes_live_under_v1(self, client, points):
        ds = client.register_points(points)
        job = client.submit(algorithm="kcenter", dataset=ds["id"], k=4)
        done = client.wait(job["id"])
        assert done["state"] == "done"
        assert client.dataset(ds["id"])["id"] == ds["id"]
        assert any(d["id"] == ds["id"] for d in client.datasets())
        assert client.stats()["jobs_by_state"]["done"] >= 1
        assert "repro_jobs_submitted_total" in client.metrics()
        assert client.trace(job["id"])["traceEvents"]

    def test_v1_responses_not_deprecated(self, server):
        status, headers, _ = _raw_get(f"{server.url}/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers


class TestUnversionedPaths:
    def test_unversioned_paths_have_no_route(self, server):
        body = json.dumps({"algorithm": "kcenter", "dataset": "d", "k": 2}).encode()
        for req in (urllib.request.Request(f"{server.url}/healthz"),
                    urllib.request.Request(f"{server.url}/jobs", data=body, headers={
                        "Content-Type": "application/json"})):
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(req, timeout=30)
            err = json.loads(exc.value.read())["error"]
            assert exc.value.code == 404 and err["code"] == "no_route"
            assert err["request_id"] == exc.value.headers["X-Request-Id"]
            assert "Deprecation" not in exc.value.headers


class TestErrorEnvelope:
    def test_unknown_job_envelope(self, server):
        status, _, body = _raw_get(f"{server.url}/v1/jobs/job-999999")
        assert status == 404
        err = body["error"]
        assert err["code"] == "unknown_job"
        assert "job-999999" in err["message"]
        assert err["request_id"]

    def test_unknown_dataset_code(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.submit(algorithm="kcenter", dataset="ds-nope", k=2)
        assert exc_info.value.status == 404
        assert exc_info.value.code == "unknown_dataset"
        assert exc_info.value.request_id

    def test_no_route_code(self, server):
        status, _, body = _raw_get(f"{server.url}/v1/nonsense")
        assert status == 404
        assert body["error"]["code"] == "no_route"

    def test_invalid_request_code(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.submit(algorithm="kcenter")  # no dataset
        assert exc_info.value.status == 400
        assert exc_info.value.code == "invalid_request"

    def test_conflict_code(self, client, points):
        ds = client.register_points(points)
        job = client.submit(algorithm="kcenter", dataset=ds["id"], k=3)
        client.wait(job["id"])
        with pytest.raises(ServiceError) as exc_info:
            client.cancel(job["id"])
        assert exc_info.value.status == 409
        assert exc_info.value.code == "conflict"

    def test_queue_full_is_retryable_code(self):
        err = ServiceError(429, "full", code="queue_full")
        assert err.retryable
        assert not ServiceError(404, "nope", code="unknown_job").retryable
        # pre-envelope fallback: no code → status decides
        assert ServiceError(503, "busy").retryable
        assert not ServiceError(400, "bad").retryable
        # connection-level failures carry the client-side transport code
        assert ServiceError(0, "refused", code="transport").retryable


class TestPagination:
    def _submit_many(self, client, points, count):
        ds = client.register_points(points)
        ids = []
        for seed in range(count):
            job = client.submit(
                algorithm="kcenter", dataset=ds["id"], k=3, seed=seed
            )
            client.wait(job["id"])
            ids.append(job["id"])
        return ids

    def test_limit_and_cursor(self, client, points):
        ids = self._submit_many(client, points, 5)
        page = client.jobs_page(limit=2)
        assert [j["id"] for j in page["jobs"]] == ids[:2]
        assert page["next_cursor"] == ids[1]
        page2 = client.jobs_page(limit=2, cursor=page["next_cursor"])
        assert [j["id"] for j in page2["jobs"]] == ids[2:4]
        last = client.jobs_page(limit=2, cursor=page2["next_cursor"])
        assert [j["id"] for j in last["jobs"]] == ids[4:]
        assert "next_cursor" not in last

    def test_list_jobs_follows_cursors(self, client, points):
        ids = self._submit_many(client, points, 5)
        assert [j["id"] for j in client.list_jobs(page_size=2)] == ids
        assert [j["id"] for j in client.jobs(page_size=2)] == ids

    def test_state_filter_with_pagination(self, client, points):
        ids = self._submit_many(client, points, 3)
        done = client.jobs_page(state="done", limit=10)
        assert [j["id"] for j in done["jobs"]] == ids
        assert client.jobs_page(state="failed")["jobs"] == []

    def test_bad_limit_and_cursor_rejected(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.jobs_page(limit=0)
        assert exc_info.value.code == "invalid_request"
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/jobs?limit=abc")
        assert exc_info.value.code == "invalid_request"
        with pytest.raises(ServiceError) as exc_info:
            client.jobs_page(cursor="garbage")
        assert exc_info.value.code == "invalid_request"

    def test_results_never_inlined_in_lists(self, client, points):
        self._submit_many(client, points, 1)
        (job,) = client.jobs_page(limit=10)["jobs"]
        assert "result" not in job
        assert job["state"] == "done"


class TestClientCursorEdges:
    """ServiceClient pagination against awkward pages: empty-but-not-
    final filtered pages, non-advancing cursors, reserved characters in
    query params, and cursor stability while jobs transition state."""

    def _scripted_client(self, pages):
        """A client whose transport replays canned pages and records
        every requested path."""
        client = ServiceClient("http://scripted", retries=0)
        calls = []

        def fake_request(method, path, body=None):
            calls.append(path)
            return dict(pages[len(calls) - 1])

        client._request = fake_request
        return client, calls

    def test_empty_filtered_page_does_not_end_iteration(self):
        # every job in the first cursor window left the filtered state
        # between pages: the page is empty, yet a cursor follows
        client, _ = self._scripted_client([
            {"jobs": [], "next_cursor": "job-000002"},
            {"jobs": [{"id": "job-000003"}]},
        ])
        assert [j["id"] for j in client.iter_jobs(state="queued")] == [
            "job-000003"
        ]

    def test_non_advancing_cursor_terminates(self):
        page = {"jobs": [{"id": "job-000001"}], "next_cursor": "job-000001"}
        client, calls = self._scripted_client([page, dict(page), dict(page)])
        jobs = list(client.iter_jobs())
        # one follow-up for the echoed cursor, then stop — not a loop
        assert [j["id"] for j in jobs] == ["job-000001", "job-000001"]
        assert len(calls) == 2

    def test_missing_collection_key_tolerated(self):
        client, _ = self._scripted_client([{}, {}])
        assert client.jobs_page(state="failed")["jobs"] == []
        assert list(client.iter_jobs()) == []

    def test_query_params_are_url_encoded(self):
        client, calls = self._scripted_client([{"jobs": []}])
        client.jobs_page(state="do ne&x=1", cursor="job-000001")
        assert calls == ["/jobs?state=do+ne%26x%3D1&cursor=job-000001"]

    def test_bad_page_size_rejected_client_side(self):
        client, _ = self._scripted_client([])
        with pytest.raises(ValueError, match="page_size"):
            list(client.iter_jobs(page_size=0))

    def test_cursor_stable_while_jobs_transition(self, client, points):
        """Jobs finishing between page fetches must not shift, repeat,
        or hide earlier pages: the cursor pins a position by id."""
        ds = client.register_points(points)
        first = [
            client.submit(algorithm="kcenter", dataset=ds["id"], k=3, seed=s)
            for s in range(2)
        ]
        page1 = client.jobs_page(limit=2)
        assert [j["id"] for j in page1["jobs"]] == [j["id"] for j in first]
        # state churn mid-pagination: the first page's jobs finish and
        # new jobs arrive before the cursor is followed
        for job in first:
            client.wait(job["id"])
        later = [
            client.submit(algorithm="kcenter", dataset=ds["id"], k=4, seed=s)
            for s in range(2)
        ]
        # (no next_cursor yet — the listing was complete at fetch time;
        # resuming from the last seen id is the cursor contract)
        page2 = client.jobs_page(limit=10, cursor=page1["jobs"][-1]["id"])
        assert [j["id"] for j in page2["jobs"]] == [j["id"] for j in later]
        for job in later:
            client.wait(job["id"])
        # a filtered walk started now sees every job exactly once
        seen = [j["id"] for j in client.iter_jobs(state="done", page_size=1)]
        assert seen == [j["id"] for j in first + later]


class TestAnalysesApi:
    """The ``/v1/analyses`` sweep surface: submission, pagination, the
    ranked report, and its error envelopes."""

    def _small_sweep(self, client, points, **overrides):
        ds = client.register_points(points)
        body = {"datasets": [ds["id"]], "solvers": ["gonzalez"], "ks": [3]}
        body.update(overrides)
        return client.submit_analysis(**body)

    def test_submit_wait_report(self, client, points):
        record = self._small_sweep(client, points, ks=[3, 4])
        assert record["id"].startswith("an-") and record["cells"] == 2
        done = client.wait_analysis(record["id"], timeout=120)
        assert done["state"] == "done"
        report = client.analysis_report(record["id"])
        assert sorted(report["ranking"]) == [0, 1]
        assert report["recommendation"]["cell"] == report["ranking"][0]
        got = client.analysis(record["id"])
        assert got["cells"] == 2 and "report" not in got

    def test_envelopes(self, server, client, points):
        ds = client.register_points(points)
        cases = [
            (lambda: client.analysis("an-999999"), 404, "unknown_analysis"),
            (lambda: client.analysis_report("an-999999"), 404,
             "unknown_analysis"),
            (lambda: client.submit_analysis(
                datasets=[ds["id"]], solvers=["nope"], ks=[3]),
             400, "invalid_request"),
            (lambda: client.submit_analysis(
                datasets=["ds-nope"], solvers=["gonzalez"], ks=[3]),
             404, "unknown_dataset"),
            (lambda: client.analyses_page(state="bogus"), 400,
             "invalid_request"),
            (lambda: client.analyses_page(cursor="job-000001"), 400,
             "invalid_request"),
        ]
        for call, status, code in cases:
            with pytest.raises(ServiceError) as exc_info:
                call()
            assert exc_info.value.status == status
            assert exc_info.value.code == code
            assert exc_info.value.request_id

    def test_report_conflict_while_running(self, server, client):
        # a hand-planted running analysis: deterministic stand-in for
        # "the grid is still draining"
        from repro.service.store import AnalysisRecord

        store = server.sweeps.store
        record = AnalysisRecord(
            id=store.next_analysis_id(), spec={}, state="running",
            created_at=0.0, cell_job_ids=["job-999999"],
        )
        store.create(record)
        with pytest.raises(ServiceError) as exc_info:
            client.analysis_report(record.id)
        assert exc_info.value.status == 409
        assert exc_info.value.code == "conflict"
        store.delete(record.id)

    def test_pagination(self, client, points):
        ids = []
        for k in (3, 4, 5):
            record = self._small_sweep(client, points, ks=[k])
            client.wait_analysis(record["id"], timeout=60)
            ids.append(record["id"])
        page = client.analyses_page(limit=2)
        assert [a["id"] for a in page["analyses"]] == ids[:2]
        assert page["next_cursor"] == ids[1]
        rest = client.analyses_page(limit=2, cursor=page["next_cursor"])
        assert [a["id"] for a in rest["analyses"]] == ids[2:]
        assert "next_cursor" not in rest
        assert [a["id"] for a in client.iter_analyses(page_size=1)] == ids
        assert [a["id"] for a in client.analyses(state="done")] == ids
        assert client.analyses(state="failed") == []

    def test_stats_and_metrics_expose_sweeps(self, client, points):
        record = self._small_sweep(client, points)
        client.wait_analysis(record["id"], timeout=60)
        stats = client.stats()
        assert stats["analyses"]["analyses_by_state"]["done"] >= 1
        text = client.metrics()
        assert "repro_sweeps_submitted_total" in text
        assert "repro_sweep_cells_total" in text
