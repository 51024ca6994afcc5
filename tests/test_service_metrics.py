"""The service metrics surface: ``GET /metrics``, the ``/stats``
``metrics`` block, and the chaos reconciliation bar.

The acceptance criterion pinned here: after a fault-injected run the
``repro_faults_injected_total`` / ``repro_faults_recovered_total``
counters on the metrics surface match the executor's own
``recovery_stats()`` exactly — the Prometheus view is the recovery
ledger, not an approximation of it.
"""

import re

import numpy as np
import pytest

from repro import FaultPlan, ProcessExecutor
from repro.service import DatasetRegistry, JobManager, JobSpec, ServiceClient
from repro.service.http import run_in_thread, serve

#: every non-comment exposition line: name{labels} value
_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?(\d+(\.\d+)?([eE][+-]?\d+)?|NaN|\+?Inf)$'
)


@pytest.fixture()
def live_server():
    server = serve(port=0, workers=1)
    run_in_thread(server)
    try:
        yield server
    finally:
        server.shutdown_service()


def _run_one_job(client):
    ds = client.register_workload("gaussian", n=300, seed=0)
    job = client.submit(algorithm="kcenter", dataset=ds["id"], k=4,
                        eps=0.3, machines=3, seed=1)
    return client.wait(job["id"], timeout=120)


class TestMetricsEndpoint:
    def test_prometheus_text_is_well_formed(self, live_server):
        client = ServiceClient(live_server.url)
        _run_one_job(client)
        text = client.metrics()
        assert text.endswith("\n")
        seen_types = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                seen_types[name] = kind
            elif line.startswith("#"):
                assert line.startswith("# HELP "), line
            else:
                assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
        assert seen_types["repro_jobs_submitted_total"] == "counter"
        assert seen_types["repro_queue_depth"] == "gauge"
        assert seen_types["repro_job_latency_seconds"] == "histogram"
        assert seen_types["repro_solver_runs_total"] == "counter"
        assert 'repro_solver_runs_total{algorithm="kcenter"} 1' in text
        assert 'repro_job_latency_seconds_bucket{algorithm="kcenter",le="+Inf"} 1' in text

    def test_stats_metrics_block_matches_counters(self, live_server):
        client = ServiceClient(live_server.url)
        _run_one_job(client)
        _run_one_job(client)  # identical spec → served from cache
        stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters["repro_jobs_submitted_total"][""] == stats["jobs_submitted_total"]
        assert counters["repro_cache_hits_total"][""] == stats["cache"]["hits_total"]
        assert counters["repro_cache_misses_total"][""] == stats["cache"]["misses_total"]
        gauges = stats["metrics"]["gauges"]
        assert gauges["repro_cache_hit_ratio"][""] == stats["cache"]["hit_ratio"]
        assert gauges["repro_cache_entries"][""] == stats["cache"]["entries"]

    def test_metrics_text_agrees_with_stats(self, live_server):
        client = ServiceClient(live_server.url)
        _run_one_job(client)
        stats = client.stats()
        text = client.metrics()
        expected = stats["jobs_submitted_total"]
        assert f"repro_jobs_submitted_total {expected}\n" in text
        assert f"repro_cache_misses_total {stats['cache']['misses_total']}\n" in text


def _fmt(value):
    """A sample value the way the renderer prints it (integers undotted)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _fault_counters(snapshot, family):
    """``{(layer, kind): value}`` from one fault counter family."""
    out = {}
    for label_string, value in snapshot["counters"].get(family, {}).items():
        labels = dict(re.findall(r'(\w+)="([^"]*)"', label_string))
        out[(labels["layer"], labels["kind"])] = value
    return out


class TestChaosReconciliation:
    def test_fault_counters_match_recovery_stats(self, monkeypatch):
        """Acceptance: /metrics fault counters == executor.recovery_stats()."""
        if ProcessExecutor(max_workers=2).fallback_reason:
            pytest.skip("process executor unavailable on this platform")
        # enough forked workers for the chaos seed's coordinates to fire
        monkeypatch.setenv("REPRO_WORKERS", "3")
        datasets = DatasetRegistry()
        manager = JobManager(
            datasets, workers=1, backend="process",
            faults=FaultPlan(seed=2026, worker_kill=0.2, worker_corrupt=0.1,
                             machine_fault=0.08),
        )
        manager.start()
        try:
            points = np.random.default_rng(3).normal(size=(150, 2))
            ds = datasets.register_points(points)
            job = manager.submit(JobSpec(
                algorithm="kcenter", dataset=ds.id, k=5, eps=0.2,
                machines=4, seed=7,
            ))
            job = manager.wait(job.id, timeout=300)
            assert job.state == "done", job.error
            executor_stats = job.result["recovery"]["executor"]
            assert executor_stats["faults_injected"] >= 1  # the seed really fired

            snap = manager.sync_metrics().snapshot()
            injected = _fault_counters(snap, "repro_faults_injected_total")
            recovered = _fault_counters(snap, "repro_faults_recovered_total")

            injected_executor = sum(
                v for (layer, _), v in injected.items() if layer == "executor"
            )
            assert injected_executor == executor_stats["faults_injected"]
            assert recovered.get(("executor", "chunk_retry"), 0) == (
                executor_stats["chunk_retries"]
            )
            assert recovered.get(("executor", "serial_fallback"), 0) == (
                executor_stats["serial_fallbacks"]
            )
        finally:
            manager.stop()

    def test_http_chaos_counters_reconcile(self, monkeypatch):
        """The same reconciliation holds over the HTTP surface."""
        if ProcessExecutor(max_workers=2).fallback_reason:
            pytest.skip("process executor unavailable on this platform")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        server = serve(
            port=0, workers=1, backend="process",
            faults="seed=2026,worker_kill=0.2,machine_fault=0.08",
        )
        run_in_thread(server)
        try:
            client = ServiceClient(server.url)
            done = _run_one_job(client)
            executor_stats = done["result"]["recovery"]["executor"]
            assert executor_stats["faults_injected"] >= 1
            stats = client.stats()
            injected = _fault_counters(
                stats["metrics"], "repro_faults_injected_total"
            )
            injected_executor = sum(
                v for (layer, _), v in injected.items() if layer == "executor"
            )
            assert injected_executor == executor_stats["faults_injected"]
            text = client.metrics()
            for (layer, kind), value in injected.items():
                sample = (
                    f'repro_faults_injected_total{{layer="{layer}",'
                    f'kind="{kind}"}} {_fmt(value)}'
                )
                assert sample in text, f"missing from /metrics: {sample}"
        finally:
            server.shutdown_service()
