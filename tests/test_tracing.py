"""End-to-end distributed tracing (ISSUE 6 acceptance).

Covers the :mod:`repro.obs.tracing` primitives, cross-process span
merging (the process backend ships chunk spans back from forked
children), trace determinism (two seeded runs produce bit-identical
canonical Chrome documents), serial/process phase-span equivalence, and
the HTTP surface: one trace id connects client → server → job → solver
→ executor, errors echo the server-assigned request id, and cache hits
are annotated in the merged trace.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.api import build_cluster, solve_kcenter
from repro.obs import Recorder, canonical_chrome_trace
from repro.obs.export import read_jsonl, to_chrome_trace, trace_payload
from repro.obs.tracing import TraceContext, current_trace, use_trace
from repro.service import ServiceClient, ServiceError, serve
from repro.service.http import run_in_thread

HEX32 = re.compile(r"^[0-9a-f]{32}$")
HEX16 = re.compile(r"^[0-9a-f]{16}$")


# -- TraceContext primitives -------------------------------------------------


class TestTraceContext:
    def test_from_seed_is_deterministic(self):
        a = TraceContext.from_seed(7)
        b = TraceContext.from_seed(7)
        assert a.trace_id == b.trace_id and a.span_id == b.span_id
        assert HEX32.match(a.trace_id) and HEX16.match(a.span_id)
        assert a.parent_id is None

    def test_different_seeds_differ(self):
        assert TraceContext.from_seed(1).trace_id != TraceContext.from_seed(2).trace_id

    def test_generate_is_valid_and_random(self):
        a, b = TraceContext.generate(), TraceContext.generate()
        assert HEX32.match(a.trace_id) and HEX16.match(a.span_id)
        assert a.trace_id != b.trace_id

    def test_child_links_and_determinism(self):
        root = TraceContext.from_seed(3)
        c1 = root.child("phase")
        assert c1.trace_id == root.trace_id
        assert c1.parent_id == root.span_id
        assert c1.span_id != root.span_id
        # same name again -> distinct sibling (occurrence-keyed)
        c2 = root.child("phase")
        assert c2.span_id != c1.span_id
        # a fresh equivalent root derives the same children
        again = TraceContext.from_seed(3)
        assert again.child("phase").span_id == c1.span_id
        assert again.child("phase").span_id == c2.span_id

    def test_traceparent_round_trip(self):
        ctx = TraceContext.from_seed(11)
        header = ctx.to_traceparent()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        back = TraceContext.from_traceparent(header)
        assert back is not None
        assert back.trace_id == ctx.trace_id and back.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "junk",
            "00-zz-11-01",
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "1" * 31 + "-" + "2" * 16 + "-01",  # short trace id
        ],
    )
    def test_invalid_traceparent_rejected(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_use_trace_scopes_ambient_context(self):
        assert current_trace() is None
        ctx = TraceContext.from_seed(5)
        with use_trace(ctx):
            assert current_trace() is ctx
            inner = TraceContext.from_seed(6)
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is ctx
        assert current_trace() is None


# -- span stamping through the cluster --------------------------------------


@pytest.fixture
def points():
    return np.random.default_rng(0).normal(scale=2.0, size=(300, 2))


def _traced_run(points, backend: str, workers=None):
    cluster = build_cluster(
        points,
        machines=4,
        seed=1,
        backend=backend,
        max_workers=None if workers else 2,
        workers=workers,
        trace=TraceContext.from_seed(5),
    )
    rec = Recorder.attach(cluster, capture_messages=False)
    res = solve_kcenter(k=6, eps=0.5, cluster=cluster)
    cluster.executor.shutdown()
    return res, rec.log


class TestSpanStamping:
    def test_serial_spans_carry_trace_ids(self, points):
        _, log = _traced_run(points, "serial")
        root = TraceContext.from_seed(5)
        assert log.spans
        for s in log.spans:
            assert s.trace_id == root.trace_id
            assert HEX16.match(s.span_id)
        assert log.meta["trace_id"] == root.trace_id
        # top-level spans hang off the root span
        tops = [s for s in log.spans if s.parent_uid is None]
        assert tops and all(s.parent_span_id == root.span_id for s in tops)
        # nesting is mirrored in the span-id links
        by_uid = {s.uid: s for s in log.spans}
        for s in log.spans:
            if s.parent_uid is not None:
                assert s.parent_span_id == by_uid[s.parent_uid].span_id

    def test_span_ids_deterministic_across_runs(self, points):
        _, log_a = _traced_run(points, "serial")
        _, log_b = _traced_run(points, "serial")
        ids_a = [(s.name, s.span_id, s.parent_span_id) for s in log_a.spans]
        ids_b = [(s.name, s.span_id, s.parent_span_id) for s in log_b.spans]
        assert ids_a == ids_b

    def test_untraced_cluster_leaves_spans_unstamped(self, points):
        cluster = build_cluster(points, machines=4, seed=1)
        rec = Recorder.attach(cluster, capture_messages=False)
        solve_kcenter(k=6, eps=0.5, cluster=cluster)
        assert rec.log.spans
        assert all(s.trace_id is None for s in rec.log.spans)
        assert "trace_id" not in rec.log.meta


# -- cross-process merging (ISSUE satellite: bit-identical merged traces) ----


@pytest.fixture
def agents():
    """Three in-process remote worker agents; stopped at teardown."""
    from repro.mpc.remote import WorkerAgent

    pool = [WorkerAgent() for _ in range(3)]
    yield [a.start() for a in pool]
    for a in pool:
        a.stop()


class TestProcessBackendMerging:
    @pytest.mark.parametrize("backend", ["process", "remote"])
    def test_exec_spans_merged_with_parent_links(self, points, backend, request):
        workers = request.getfixturevalue("agents") if backend == "remote" else None
        _, log = _traced_run(points, backend, workers)
        root = TraceContext.from_seed(5)
        assert log.exec_spans, "process run produced no executor chunk spans"
        parent_ids = {s.span_id for s in log.spans}
        for e in log.exec_spans:
            assert e.trace_id == root.trace_id
            assert HEX16.match(e.span_id)
            assert e.parent_span_id in parent_ids
            assert e.os_pid > 0
            assert e.end_time >= e.start_time

    def test_chrome_doc_contains_parent_and_child_spans(self, points):
        _, log = _traced_run(points, "process")
        doc = to_chrome_trace(log)
        events = doc["traceEvents"]
        phase = [e for e in events if e.get("cat") == "span"]
        execs = [e for e in events if e.get("cat") == "exec"]
        assert phase and execs
        # child spans live under distinct per-worker pids, off the driver's
        assert all(e["pid"] == 0 for e in phase)
        assert all(e["pid"] >= 1 for e in execs)
        lanes = {e["pid"] for e in execs}
        named = {
            e["pid"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert lanes <= named
        trace_ids = {e["args"]["trace_id"] for e in phase + execs}
        assert trace_ids == {TraceContext.from_seed(5).trace_id}

    def test_canonical_chrome_trace_bit_identical(self, points):
        _, log_a = _traced_run(points, "process")
        _, log_b = _traced_run(points, "process")
        canon_a = canonical_chrome_trace(to_chrome_trace(log_a))
        canon_b = canonical_chrome_trace(to_chrome_trace(log_b))
        text_a = json.dumps(canon_a, sort_keys=True)
        text_b = json.dumps(canon_b, sort_keys=True)
        assert text_a == text_b
        # the canonical form really dropped the wall-clock noise
        assert '"ts"' not in text_a and '"os_pid"' not in text_a

    def test_phase_span_set_matches_serial(self, points):
        res_s, log_s = _traced_run(points, "serial")
        res_p, log_p = _traced_run(points, "process")
        assert res_s.radius == res_p.radius
        assert list(res_s.centers) == list(res_p.centers)

        def key(log):
            return [
                (s.name, s.uid, s.parent_uid, s.rounds, s.words, s.span_id)
                for s in log.spans
            ]

        assert key(log_s) == key(log_p)
        # the only difference is the child-span list itself
        assert log_s.exec_spans == [] and log_p.exec_spans != []

    def test_jsonl_round_trip_preserves_exec_spans(self, points, tmp_path):
        from repro.obs.export import export_run

        _, log = _traced_run(points, "process")
        path = export_run(log, tmp_path / "run.jsonl", "jsonl")
        back = read_jsonl(path)
        assert [e.to_dict() for e in back.exec_spans] == [
            e.to_dict() for e in log.exec_spans
        ]
        assert [s.to_dict() for s in back.spans] == [s.to_dict() for s in log.spans]

    def test_trace_payload_jsonl_carries_annotations(self, points):
        _, log = _traced_run(points, "process")
        _, body = trace_payload(
            log, "jsonl", annotations=[{"name": "cache_hit", "args": {"job_id": "j"}}]
        )
        kinds = [json.loads(line)["type"] for line in body.splitlines()]
        assert "exec_span" in kinds and "annotation" in kinds


# -- HTTP end to end ---------------------------------------------------------


@pytest.fixture
def server():
    srv = serve(port=0, workers=1, backend="serial")
    run_in_thread(srv)
    yield srv
    srv.shutdown_service()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestHttpTracePropagation:
    def test_one_trace_id_client_to_solver(self, client, points):
        ctx = TraceContext.from_seed(42)
        with use_trace(ctx):
            ds = client.register_points(points)
            job = client.submit(
                algorithm="kcenter", dataset=ds["id"], k=6, eps=0.5, seed=1
            )
            assert job["trace_id"] == ctx.trace_id
            done = client.wait(job["id"], timeout=120.0)
        assert done["state"] == "done"
        assert done["trace_id"] == ctx.trace_id
        trace = client.trace(job["id"])
        assert trace["otherData"]["trace_id"] == ctx.trace_id
        spans = [e for e in trace["traceEvents"] if e.get("cat") == "span"]
        assert spans
        assert {e["args"]["trace_id"] for e in spans} == {ctx.trace_id}

    def test_response_headers_echo_trace(self, client):
        client.healthz()
        assert client.last_request_id and HEX32.match(client.last_request_id)
        ctx = TraceContext.from_seed(9)
        with use_trace(ctx):
            client.healthz()
        # the server's request context is a child of the client's
        assert client.last_request_id == ctx.trace_id

    def test_errors_carry_request_id(self, client):
        with pytest.raises(ServiceError) as exc:
            client.job("job-nope")
        err = exc.value
        assert err.status == 404
        assert err.request_id and HEX32.match(err.request_id)
        assert f"[request {err.request_id}]" in str(err)
        assert client.last_request_id == err.request_id

    def test_cache_hit_annotated_in_trace(self, client, points):
        ds = client.register_points(points)
        spec = dict(algorithm="kcenter", dataset=ds["id"], k=6, eps=0.5, seed=1)
        first = client.submit(**spec)
        client.wait(first["id"], timeout=120.0)
        second = client.submit(**spec)
        done = client.wait(second["id"], timeout=120.0)
        assert done["cached"] is True
        trace = client.trace(second["id"])
        names = [
            e["name"]
            for e in trace["traceEvents"]
            if e.get("cat") == "annotation"
        ]
        assert "cache_hit" in names and "job" in names
