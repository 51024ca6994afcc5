"""Unit tests for the service core: datasets, specs, cache, job manager."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.api import solve_kcenter
from repro.obs.record import RunLog
from repro.service import (
    DatasetRegistry,
    JobManager,
    JobRecord,
    JobSpec,
    JobState,
    QueueFullError,
    ResultCache,
    UnknownJobError,
    open_stores,
)
from repro.service.datasets import UnknownDatasetError
from repro.workloads.registry import (
    fingerprint_metric,
    fingerprint_points,
    make_workload,
)


@pytest.fixture
def points(rng):
    return rng.normal(scale=3.0, size=(120, 2))


@pytest.fixture
def registry(points):
    reg = DatasetRegistry()
    reg.register_points(points)
    return reg


def make_manager(registry, **kwargs) -> JobManager:
    kwargs.setdefault("workers", 1)
    return JobManager(registry, **kwargs)


class TestFingerprinting:
    def test_same_bytes_same_fingerprint(self, points):
        assert fingerprint_points(points) == fingerprint_points(points.copy())

    def test_different_data_different_fingerprint(self, points):
        other = points.copy()
        other[0, 0] += 1e-12
        assert fingerprint_points(points) != fingerprint_points(other)

    def test_shape_is_part_of_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(6.0).reshape(3, 2)
        assert fingerprint_points(a) != fingerprint_points(b)

    def test_metric_fingerprint_deterministic(self, points):
        from repro.metric.euclidean import EuclideanMetric

        a = fingerprint_metric(EuclideanMetric(points))
        b = fingerprint_metric(EuclideanMetric(points.copy()))
        assert a == b

    def test_metric_fingerprint_covers_distance_function(self, points):
        # same points, different metric => different fingerprint — the
        # cache must never serve a euclidean result to a manhattan job
        from repro.metric.euclidean import EuclideanMetric
        from repro.metric.lp import ChebyshevMetric, ManhattanMetric

        fps = {
            fingerprint_metric(EuclideanMetric(points)),
            fingerprint_metric(ManhattanMetric(points)),
            fingerprint_metric(ChebyshevMetric(points)),
        }
        assert len(fps) == 3

    def test_fingerprint_pierces_wrapper_chain(self, points):
        from repro.metric.euclidean import EuclideanMetric
        from repro.metric.oracle import CountingOracle

        wrapped = CountingOracle(EuclideanMetric(points))
        assert fingerprint_metric(wrapped) == fingerprint_metric(
            EuclideanMetric(points)
        )

    def test_workload_fingerprint_deterministic(self):
        a = make_workload("gaussian", 200, seed=5)
        b = make_workload("gaussian", 200, seed=5)
        c = make_workload("gaussian", 200, seed=6)
        assert a.fingerprint() == b.fingerprint() != c.fingerprint()


class TestDatasetRegistry:
    def test_register_points_roundtrip(self, points):
        reg = DatasetRegistry()
        ds = reg.register_points(points)
        assert ds.n == 120 and ds.kind == "points"
        assert reg.get(ds.id) is ds
        from repro.metric.euclidean import EuclideanMetric

        assert ds.fingerprint == fingerprint_metric(EuclideanMetric(points))

    def test_registration_idempotent(self, points):
        reg = DatasetRegistry()
        assert reg.register_points(points) is reg.register_points(points.copy())
        assert len(reg) == 1

    def test_same_points_different_metric_distinct_datasets(self, points):
        # regression: euclidean-then-manhattan registration must not
        # return the euclidean dataset (and its cached results)
        reg = DatasetRegistry()
        eu = reg.register_points(points, metric="euclidean")
        man = reg.register_points(points, metric="manhattan")
        assert eu.id != man.id and eu.fingerprint != man.fingerprint
        assert len(reg) == 2
        assert type(man.metric).__name__ == "ManhattanMetric"

    def test_register_workload(self):
        reg = DatasetRegistry()
        ds = reg.register_workload("gaussian", 150, seed=2)
        assert ds.kind == "workload" and ds.n == 150
        assert ds.params == {"workload": "gaussian", "n": 150, "seed": 2}

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            DatasetRegistry().register_workload("bogus", 100)

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownDatasetError):
            DatasetRegistry().get("ds-nope")

    def test_describe_is_json_safe(self, points):
        import json

        ds = DatasetRegistry().register_points(points)
        json.dumps(ds.describe())


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(algorithm="kcenter", dataset="ds-x", k=5)
        assert spec.eps == 0.1 and spec.partition == "random"

    @pytest.mark.parametrize(
        "bad",
        [
            {"algorithm": "nope", "dataset": "d", "k": 1},
            {"algorithm": "kcenter", "dataset": "d", "k": 0},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "eps": 0},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "machines": 0},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "partition": "zigzag"},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "constants": "magic"},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "trim_mode": "zigzag"},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "timeout_s": -1},
            {"algorithm": "ksupplier", "dataset": "d", "k": 1},
            {"algorithm": "kcenter", "dataset": "d", "k": 1, "customers": [1]},
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            JobSpec(**bad)

    def test_unknown_backend_error_names_the_backends(self):
        for name in ("gpu", "thread"):
            with pytest.raises(ValueError) as exc:
                JobSpec(algorithm="kcenter", dataset="d", k=1, backend=name)
            assert str(exc.value).endswith("expected one of serial, process, remote")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job field"):
            JobSpec.from_dict({"algorithm": "kcenter", "dataset": "d", "kk": 3})

    def test_cache_key_excludes_backend_irrelevant_fields(self):
        a = JobSpec(algorithm="kcenter", dataset="d", k=5, timeout_s=10,
                    tags={"who": "a"})
        b = JobSpec(algorithm="kcenter", dataset="d", k=5, timeout_s=99,
                    tags={"who": "b"})
        assert a.cache_key("fp") == b.cache_key("fp")

    def test_cache_key_sensitive_to_params(self):
        a = JobSpec(algorithm="kcenter", dataset="d", k=5, seed=0)
        b = JobSpec(algorithm="kcenter", dataset="d", k=5, seed=1)
        assert a.cache_key("fp") != b.cache_key("fp")
        assert a.cache_key("fp") != a.cache_key("other-fp")


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k")[0] == {"v": 1}
        stats = cache.stats()
        assert stats["hits_total"] == 1 and stats["misses_total"] == 1
        assert stats["hit_ratio"] == 0.5

    def test_first_writer_wins(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert cache.get("k")[0] == {"v": 1}

    def test_fifo_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.put("c", {})
        assert "a" not in cache and "b" in cache and "c" in cache


class TestJobManager:
    def test_job_completes_and_matches_direct_call(self, registry, points):
        manager = make_manager(registry).start()
        try:
            ds_id = registry.list()[0]["id"]
            job = manager.submit(
                JobSpec(algorithm="kcenter", dataset=ds_id, k=6, eps=0.2,
                        seed=3, machines=4)
            )
            job = manager.wait(job.id, timeout=60)
            assert job.state == JobState.DONE
            direct = solve_kcenter(points, k=6, eps=0.2, seed=3, machines=4)
            assert job.result["record"]["radius"] == direct.radius
            assert job.result["record"]["centers"] == [int(c) for c in direct.centers]
        finally:
            manager.stop()

    def test_cache_hit_skips_queue(self, registry):
        manager = make_manager(registry).start()
        try:
            ds_id = registry.list()[0]["id"]
            spec = dict(algorithm="kcenter", dataset=ds_id, k=4, eps=0.2)
            first = manager.wait(manager.submit(JobSpec(**spec)).id, timeout=60)
            second = manager.submit(JobSpec(**spec))
            assert second.cached and second.state == JobState.DONE
            assert second.result == first.result
            assert manager.cache.stats()["hits_total"] == 1
        finally:
            manager.stop()

    def test_queue_full_raises_and_keeps_no_record(self, registry):
        manager = make_manager(registry, queue_limit=2)  # workers NOT started
        ds_id = registry.list()[0]["id"]
        specs = [
            JobSpec(algorithm="kcenter", dataset=ds_id, k=3, seed=s)
            for s in range(4)
        ]
        accepted = [manager.submit(specs[0]), manager.submit(specs[1])]
        with pytest.raises(QueueFullError):
            manager.submit(specs[2])
        assert manager.stats()["jobs_rejected_total"] == 1
        assert len(manager.list_jobs()) == 2
        # draining works once workers start
        manager.start()
        try:
            for job in accepted:
                assert manager.wait(job.id, timeout=60).state == JobState.DONE
        finally:
            manager.stop()

    def test_cancel_queued_job(self, registry):
        manager = make_manager(registry, queue_limit=4)  # not started
        ds_id = registry.list()[0]["id"]
        job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds_id, k=3))
        cancelled = manager.cancel(job.id)
        assert cancelled.state == JobState.CANCELLED
        manager.start()
        try:
            # the worker must skip it, not run it
            time.sleep(0.3)
            assert manager.get(job.id).state == JobState.CANCELLED
            assert manager.get(job.id).result is None
        finally:
            manager.stop()

    def test_timeout_fails_job(self, registry):
        manager = make_manager(registry).start()
        try:
            ds_id = registry.list()[0]["id"]
            job = manager.submit(
                JobSpec(algorithm="kcenter", dataset=ds_id, k=6,
                        timeout_s=1e-9)
            )
            job = manager.wait(job.id, timeout=60)
            assert job.state == JobState.FAILED
            assert "timed out" in job.error
        finally:
            manager.stop()

    def test_failed_job_keeps_traceback(self, registry):
        manager = make_manager(registry).start()
        try:
            ds_id = registry.list()[0]["id"]
            # k > n is caught at submit time...
            with pytest.raises(ValueError, match="exceeds dataset size"):
                manager.submit(JobSpec(algorithm="kcenter", dataset=ds_id, k=1000))
            # ...but a ksupplier with out-of-range ids fails in the worker
            job = manager.submit(
                JobSpec(algorithm="ksupplier", dataset=ds_id, k=2,
                        customers=[0, 1], suppliers=[10**6])
            )
            job = manager.wait(job.id, timeout=60)
            assert job.state == JobState.FAILED and job.error
        finally:
            manager.stop()

    def test_unknown_dataset_rejected_at_submit(self, registry):
        manager = make_manager(registry)
        with pytest.raises(UnknownDatasetError):
            manager.submit(JobSpec(algorithm="kcenter", dataset="ds-missing", k=2))

    def test_unknown_job_id(self, registry):
        with pytest.raises(UnknownJobError):
            make_manager(registry).get("job-000099")

    def test_stats_shape(self, registry):
        manager = make_manager(registry)
        stats = manager.stats()
        assert stats["queue_depth"] == 0
        assert set(stats["jobs_by_state"]) == {s.value for s in JobState}
        assert "hit_ratio" in stats["cache"]

    def test_cancel_then_worker_claim_is_atomic(self, registry):
        # cancel a queued job while workers are paused; once resumed the
        # worker must observe the terminal state and never flip it back
        # to running (the reviewed QUEUED->CANCELLED vs QUEUED->RUNNING
        # race)
        manager = make_manager(registry, queue_limit=8)
        manager.pause()
        manager.start()
        try:
            ds_id = registry.list()[0]["id"]
            job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds_id, k=3))
            cancelled = manager.cancel(job.id)
            assert cancelled.state == JobState.CANCELLED
            finished_at = cancelled.finished_at
            manager.resume()
            time.sleep(0.3)
            after = manager.get(job.id)
            assert after.state == JobState.CANCELLED
            assert after.started_at is None and after.result is None
            assert after.finished_at == finished_at  # not overwritten
        finally:
            manager.stop()

    def test_terminal_history_is_bounded(self, registry):
        manager = make_manager(registry, max_history=3).start()
        try:
            ds_id = registry.list()[0]["id"]
            ids = []
            for seed in range(5):
                job = manager.submit(
                    JobSpec(algorithm="kcenter", dataset=ds_id, k=3, seed=seed)
                )
                manager.wait(job.id, timeout=60)
                ids.append(job.id)
            retained = {j.id for j in manager.list_jobs()}
            assert retained == set(ids[-3:])  # oldest terminal jobs evicted
            with pytest.raises(UnknownJobError):
                manager.get(ids[0])
            # counters still reflect every submission
            assert manager.stats()["jobs_submitted_total"] == 5
        finally:
            manager.stop()

    def test_frontend_forgets_jobs_the_store_pruned(self, registry):
        stores = open_stores(queue_limit=8)
        front = make_manager(registry, stores=stores, role="frontend",
                             max_history=2).start()
        worker = make_manager(registry, stores=stores, role="worker",
                              max_history=2).start()
        try:
            ds_id = registry.list()[0]["id"]
            ids = []
            for seed in range(5):
                job = front.submit(
                    JobSpec(algorithm="kcenter", dataset=ds_id, k=3, seed=seed)
                )
                assert front.wait(job.id, timeout=60).state == JobState.DONE
                ids.append(job.id)
            with pytest.raises(UnknownJobError):
                stores.jobs.get(ids[0])
            with pytest.raises(UnknownJobError):
                front.get(ids[0])  # the manager keeps no copy of its own
        finally:
            worker.stop()
            front.stop()

    def test_queued_record_with_a_stored_cancel_request_ends_cancelled(self, registry):
        # an older release cancelled a queued job in two writes, so a
        # state dir may hold a queued record that already carries the
        # request; the worker that pops it must end it
        manager = make_manager(registry)
        ds_id = registry.list()[0]["id"]
        jobs = manager.stores.jobs
        rec = jobs.create(JobRecord(
            id=jobs.next_job_id(),
            spec=JobSpec(algorithm="kcenter", dataset=ds_id, k=3).to_dict(),
            cancel_requested=True,
        ))
        manager.stores.work_queue.push(rec.id)
        manager.start()
        try:
            job = manager.wait(rec.id, timeout=30)
            assert job.state == JobState.CANCELLED
            assert job.started_at is None and job.result is None
        finally:
            manager.stop()

    def test_concurrent_waiters_each_get_their_terminal_record(self, registry, monkeypatch):
        """Waiters share one condition that every terminal write
        notifies; under heavy thread switching each must still return
        its own job's terminal record."""
        def instant(spec, dataset, **kwargs):
            return {"record": {"seed": spec.seed}}, RunLog()

        monkeypatch.setattr("repro.service.jobs.execute_job", instant)
        manager = make_manager(registry, workers=4, queue_limit=64).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ds_id = registry.list()[0]["id"]
            ids = [
                manager.submit(JobSpec(algorithm="kcenter", dataset=ds_id, k=3, seed=s)).id
                for s in range(32)
            ]
            got = {}

            def waiter(chunk):
                for job_id in chunk:
                    got[job_id] = manager.wait(job_id, timeout=30)

            threads = [threading.Thread(target=waiter, args=(ids[i::8],)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            manager.stop()
        assert [got[j].state for j in ids] == ["done"] * 32
        assert [got[j].result["record"]["seed"] for j in ids] == list(range(32))

    def test_max_history_never_evicts_live_jobs(self, registry):
        manager = make_manager(registry, queue_limit=8, max_history=1)  # not started
        ds_id = registry.list()[0]["id"]
        queued = [
            manager.submit(JobSpec(algorithm="kcenter", dataset=ds_id, k=3, seed=s))
            for s in range(3)
        ]
        # three live (queued) jobs coexist despite max_history=1 ...
        assert len(manager.list_jobs()) == 3
        manager.cancel(queued[0].id)
        manager.cancel(queued[1].id)
        # ... and only terminal ones count against the cap
        states = {j.id: j.state for j in manager.list_jobs()}
        assert states[queued[2].id] == JobState.QUEUED
        assert sum(JobState(s).terminal for s in states.values()) == 1

    def test_diversity_and_ksupplier_jobs(self, registry, points):
        manager = make_manager(registry).start()
        try:
            ds_id = registry.list()[0]["id"]
            div = manager.submit(
                JobSpec(algorithm="diversity", dataset=ds_id, k=5, eps=0.2)
            )
            sup = manager.submit(
                JobSpec(algorithm="ksupplier", dataset=ds_id, k=3, eps=0.2,
                        customers=list(range(80)),
                        suppliers=list(range(80, 120)))
            )
            assert manager.wait(div.id, timeout=60).state == JobState.DONE
            assert manager.wait(sup.id, timeout=60).state == JobState.DONE
            assert manager.get(div.id).result["record"]["diversity"] > 0
        finally:
            manager.stop()
