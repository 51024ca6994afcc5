"""Unit tests for the metrics registry and the MetricsObserver."""

import json
import threading

import numpy as np
import pytest

from repro import (
    CountingOracle,
    EuclideanMetric,
    MPCCluster,
    metrics_reset,
    metrics_snapshot,
    mpc_kcenter,
    solve_kcenter,
)
from repro.obs import MetricsObserver, MetricsRegistry
from repro.obs.events import FaultEvent
from repro.obs.metrics import DEFAULT_TIME_BUCKETS


class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_is_monotonic(self):
        c = MetricsRegistry().counter("x_total")
        c.set_total(5)
        c.set_total(3)  # projections never move a counter backwards
        assert c.value == 5

    def test_labels_get_or_create(self):
        reg = MetricsRegistry()
        fam = reg.counter("runs_total", labels=("algorithm",))
        fam.labels("kcenter").inc()
        fam.labels("kcenter").inc()
        fam.labels("diversity").inc()
        assert fam.labels("kcenter").value == 2
        assert fam.labels("diversity").value == 1


class TestGaugesAndHistograms:
    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3

    def test_histogram_bucket_assignment(self):
        h = MetricsRegistry().histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        cumulative = dict(h._solo().cumulative())
        assert cumulative["0.1"] == 1
        assert cumulative["1"] == 2  # integral bounds render undotted
        assert cumulative["+Inf"] == 3
        assert h._solo().count == 3
        assert h._solo().sum == pytest.approx(5.55)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a_total")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total", labels=("x",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("a_total", labels=("y",))

    def test_reset_zeroes_but_keeps_registrations(self):
        reg = MetricsRegistry()
        fam = reg.counter("a_total", labels=("l",))
        fam.labels("v").inc(7)
        reg.reset()
        assert fam.labels("v").value == 0
        assert reg.counter("a_total", labels=("l",)) is fam

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["c_total"][""] == 2
        assert snap["gauges"]["g"][""] == 1.5
        hist = snap["histograms"]["h_seconds"][""]
        assert hist["buckets"] == {"1": 1, "+Inf": 1}
        assert hist["count"] == 1
        assert json.loads(json.dumps(snap)) == snap  # JSON-safe

    def test_thread_safety_under_contention(self):
        c = MetricsRegistry().counter("hits_total")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestPrometheusRendering:
    def test_text_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", labels=("kind",)).labels("x").inc(3)
        reg.histogram("h_seconds", "a histogram", buckets=(0.5,)).observe(0.1)
        text = reg.render_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 3\n' in text  # integers render undotted
        assert '# TYPE h_seconds histogram' in text
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
        assert text.endswith("\n")

    def test_families_render_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.counter("a_total").inc()
        text = reg.render_prometheus()
        assert text.index("a_total") < text.index("z_total")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("p",)).labels('we"ird\\x\n').inc()
        text = reg.render_prometheus()
        assert 'p="we\\"ird\\\\x\\n"' in text

    def test_write_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(4)
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert json.loads(path.read_text())["counters"]["c_total"][""] == 4


def _run_cluster(registry, n=200, k=4, seed=0):
    points = np.random.default_rng(seed).normal(size=(n, 2))
    oracle = CountingOracle(EuclideanMetric(points))
    cluster = MPCCluster(oracle, num_machines=4, seed=seed)
    cluster.obs.add(MetricsObserver(registry))
    result = mpc_kcenter(cluster, k, epsilon=0.3)
    return cluster, oracle, result


class TestMetricsObserver:
    def test_counts_match_cluster_ledger(self):
        reg = MetricsRegistry()
        cluster, oracle, _ = _run_cluster(reg)
        snap = reg.snapshot()["counters"]
        assert snap["repro_mpc_rounds_total"][""] == cluster.stats.rounds
        assert snap["repro_mpc_words_total"][""] == cluster.stats.total_words
        assert snap["repro_oracle_calls_total"][""] == oracle.calls
        assert snap["repro_oracle_evaluations_total"][""] == oracle.evaluations

    def test_phase_labels_present(self):
        reg = MetricsRegistry()
        _run_cluster(reg)
        phases = reg.snapshot()["counters"]["repro_phase_rounds_total"]
        assert any(key.startswith('phase="kcenter/') for key in phases)

    def test_keeps_message_fast_path(self):
        reg = MetricsRegistry()
        points = np.random.default_rng(0).normal(size=(50, 2))
        cluster = MPCCluster(EuclideanMetric(points), num_machines=2, seed=0)
        cluster.obs.add(MetricsObserver(reg))
        assert cluster.obs._message_listeners == 0

    def test_fault_events_routed_by_direction(self):
        reg = MetricsRegistry()
        obs = MetricsObserver(reg)
        obs.on_fault(FaultEvent("executor", "worker_kill", injected=True))
        obs.on_fault(FaultEvent("executor", "chunk_retry", injected=False))
        snap = reg.snapshot()["counters"]
        key = 'layer="executor",kind="worker_kill"'
        assert snap["repro_faults_injected_total"][key] == 1
        key = 'layer="executor",kind="chunk_retry"'
        assert snap["repro_faults_recovered_total"][key] == 1


class TestFacadeMetrics:
    def test_solve_feeds_global_registry(self):
        metrics_reset()
        points = np.random.default_rng(0).normal(size=(150, 2))
        solve_kcenter(points, k=3, eps=0.3, seed=1, machines=3)
        snap = metrics_snapshot()
        assert snap["counters"]["repro_solver_runs_total"][
            'algorithm="kcenter"'] == 1
        assert snap["counters"]["repro_mpc_rounds_total"][""] > 0
        assert 'algorithm="kcenter"' in snap["histograms"][
            "repro_solver_latency_seconds"]

    def test_counters_deterministic_for_fixed_seed(self):
        """Acceptance: identical counter values across seeded runs."""
        points = np.random.default_rng(0).normal(size=(150, 2))
        snaps = []
        for _ in range(2):
            metrics_reset()
            solve_kcenter(points, k=3, eps=0.3, seed=1, machines=3)
            snaps.append(metrics_snapshot()["counters"])
        assert snaps[0] == snaps[1]

    def test_repeated_solves_never_stack_observers(self):
        metrics_reset()
        points = np.random.default_rng(0).normal(size=(150, 2))
        oracle = CountingOracle(EuclideanMetric(points))
        from repro import build_cluster

        cluster = build_cluster(metric=oracle, machines=3, seed=1)
        solve_kcenter(k=3, eps=0.3, cluster=cluster)
        assert len(cluster.obs._observers) == 0  # facade detached its observer
        rounds_after_first = metrics_snapshot()["counters"][
            "repro_mpc_rounds_total"][""]
        solve_kcenter(k=3, eps=0.3, cluster=cluster)
        assert len(cluster.obs._observers) == 0
        snap = metrics_snapshot()["counters"]
        assert snap["repro_solver_runs_total"]['algorithm="kcenter"'] == 2
        assert snap["repro_mpc_rounds_total"][""] > rounds_after_first

    def test_service_job_feeds_only_its_manager_registry(self):
        """A job's solve feeds the manager's registry, once, and leaves
        the process-global registry as it was."""
        from repro.obs import default_registry
        from repro.service import DatasetRegistry, JobManager, JobSpec

        datasets = DatasetRegistry()
        ds = datasets.register_points(np.random.default_rng(0).normal(size=(300, 2)))
        manager = JobManager(datasets, workers=1).start()
        before = default_registry().snapshot()
        try:
            job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=4,
                                         eps=0.3, machines=3, seed=1))
            job = manager.wait(job.id, timeout=120)
        finally:
            manager.stop()
        assert job.state == "done"
        assert default_registry().snapshot() == before
        text = manager.sync_metrics().render_prometheus()
        assert 'repro_solver_runs_total{algorithm="kcenter"} 1\n' in text
        counters = manager.metrics.snapshot()["counters"]
        assert counters["repro_mpc_rounds_total"][""] == job.result["mpc_stats"]["rounds"]
