"""Contract parity suite for the pluggable service stores.

Every test here runs twice — once against the in-memory backend, once
against the SQLite/file one — via the parametrized fixtures below.  The
point is that :class:`~repro.service.jobs.JobManager` cannot tell the
backends apart: same atomic claim/finish semantics, same orphan
recovery, same pagination contract, same cache behaviour.
"""

from __future__ import annotations

import sqlite3
import sys
import threading

import numpy as np
import pytest

from repro.service.store import (
    AnalysisRecord,
    DatasetRecord,
    JobRecord,
    QueueFullError,
    UnknownJobError,
    ensure_queued_jobs_enqueued,
    open_stores,
)

BACKENDS = ("memory", "sqlite")


@pytest.fixture(params=BACKENDS)
def stores(request, tmp_path):
    if request.param == "memory":
        return open_stores(queue_limit=8)
    return open_stores(str(tmp_path / "state"), queue_limit=8)


@pytest.fixture
def jobs(stores):
    return stores.jobs


def _record(store, state="queued", spec=None, **kw):
    rec = JobRecord(
        id=store.next_job_id(),
        spec=spec or {"algorithm": "kcenter", "dataset": "ds-x", "k": 2},
        state=state,
        created_at=100.0,
        queued_at=100.0,
        **kw,
    )
    return store.create(rec)


class TestJobStoreContract:
    def test_create_get_roundtrip(self, jobs):
        header = "00-" + "t" * 32 + "-" + "s" * 16 + "-01"
        rec = _record(jobs, trace_id="t" * 32, traceparent=header)
        got = jobs.get(rec.id)
        assert got.id == rec.id
        assert got.spec["algorithm"] == "kcenter"
        assert got.state == "queued"
        assert got.trace_id == "t" * 32
        assert got.traceparent.startswith("00-")
        assert got.version >= 1

    def test_get_unknown_raises(self, jobs):
        with pytest.raises(UnknownJobError):
            jobs.get("job-999999")

    def test_ids_monotonic(self, jobs):
        ids = [jobs.next_job_id() for _ in range(3)]
        nums = [int(i.rsplit("-", 1)[1]) for i in ids]
        assert nums == sorted(nums)
        assert len(set(nums)) == 3

    def test_delete_is_idempotent(self, jobs):
        rec = _record(jobs)
        jobs.delete(rec.id)
        jobs.delete(rec.id)
        with pytest.raises(UnknownJobError):
            jobs.get(rec.id)

    def test_claim_transitions_queued_to_running(self, jobs):
        rec = _record(jobs)
        claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        assert claimed is not None
        assert claimed.state == "running"
        assert claimed.worker == "w1"
        assert claimed.started_at is not None
        assert claimed.lease_expires_at == 1e12

    def test_claim_race_has_one_winner(self, jobs):
        rec = _record(jobs)
        wins = [
            jobs.claim(rec.id, f"w{i}", lease_expires_at=1e12) for i in range(4)
        ]
        assert sum(1 for w in wins if w is not None) == 1

    def test_claim_race_threaded_one_winner(self, jobs):
        rec = _record(jobs)
        results = []
        barrier = threading.Barrier(4)

        def contender(i):
            barrier.wait()
            results.append(jobs.claim(rec.id, f"w{i}", lease_expires_at=1e12))

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for r in results if r is not None) == 1

    def test_claim_refuses_cancel_requested(self, jobs):
        rec = _record(jobs)
        jobs.set_cancel_requested(rec.id)
        assert jobs.claim(rec.id, "w1", lease_expires_at=1e12) is None

    def test_heartbeat_renews_only_own_lease(self, jobs):
        rec = _record(jobs)
        jobs.claim(rec.id, "w1", lease_expires_at=10.0)
        assert jobs.heartbeat(rec.id, "w2", lease_expires_at=99.0) is None
        renewed = jobs.heartbeat(rec.id, "w1", lease_expires_at=99.0)
        assert renewed is not None
        assert renewed.lease_expires_at == 99.0

    def test_finish_cas_rejects_wrong_worker(self, jobs):
        rec = _record(jobs)
        claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        claimed.state = "done"
        claimed.result = {"answer": 42}
        assert jobs.finish(claimed, "w2") is None  # not the lease owner
        finished = jobs.finish(claimed, "w1")
        assert finished is not None
        assert finished.state == "done"
        assert finished.worker is None
        assert jobs.get(rec.id).result == {"answer": 42}

    def test_finish_rejects_unclaimed(self, jobs):
        rec = _record(jobs)
        rec.state = "done"
        assert jobs.finish(rec, "w1") is None  # still queued: no lease

    def test_count_by_state(self, jobs):
        _record(jobs)
        r2 = _record(jobs)
        jobs.claim(r2.id, "w1", lease_expires_at=1e12)
        counts = jobs.count_by_state()
        assert counts.get("queued") == 1
        assert counts.get("running") == 1

    def test_recover_orphans_requeues_expired_lease(self, jobs):
        rec = _record(jobs)
        jobs.claim(rec.id, "w1", lease_expires_at=50.0)
        recovered = jobs.recover_orphans(now=100.0, max_requeues=5)
        assert [r.id for r in recovered] == [rec.id]
        got = jobs.get(rec.id)
        assert got.state == "queued"
        assert got.attempt == 1
        assert got.worker is None
        assert got.started_at is None
        assert "orphaned" in got.attempts[-1]["error"]
        assert "w1" in got.attempts[-1]["error"]

    def test_recover_orphans_ignores_live_lease(self, jobs):
        rec = _record(jobs)
        jobs.claim(rec.id, "w1", lease_expires_at=200.0)
        assert jobs.recover_orphans(now=100.0) == []
        assert jobs.get(rec.id).state == "running"

    def test_recover_orphans_exhausts_budget(self, jobs):
        rec = _record(jobs)
        for _ in range(2):
            jobs.claim(rec.id, "w1", lease_expires_at=50.0)
            jobs.recover_orphans(now=100.0, max_requeues=1)
        got = jobs.get(rec.id)
        assert got.state == "failed"
        assert "requeue budget" in got.error

    def test_recover_orphans_honours_cancel(self, jobs):
        rec = _record(jobs)
        jobs.claim(rec.id, "w1", lease_expires_at=50.0)
        jobs.set_cancel_requested(rec.id)
        recovered = jobs.recover_orphans(now=100.0)
        assert recovered[0].state == "cancelled"
        assert jobs.get(rec.id).state == "cancelled"

    def test_list_pagination_stable_order(self, jobs):
        made = [_record(jobs) for _ in range(5)]
        page1, cur1 = jobs.list(limit=2)
        assert [r.id for r in page1] == [made[0].id, made[1].id]
        assert cur1 == made[1].id
        page2, cur2 = jobs.list(limit=2, cursor=cur1)
        assert [r.id for r in page2] == [made[2].id, made[3].id]
        page3, cur3 = jobs.list(limit=2, cursor=cur2)
        assert [r.id for r in page3] == [made[4].id]
        assert cur3 is None

    def test_list_state_filter(self, jobs):
        a = _record(jobs)
        _record(jobs)
        jobs.claim(a.id, "w1", lease_expires_at=1e12)
        running, _ = jobs.list(state="running")
        assert [r.id for r in running] == [a.id]

    def test_prune_terminal_evicts_oldest(self, jobs):
        made = [_record(jobs) for _ in range(4)]
        for rec in made[:3]:
            claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
            claimed.state = "done"
            jobs.finish(claimed, "w1")
        pruned = jobs.prune_terminal(max_history=2)
        assert pruned == [made[0].id]
        with pytest.raises(UnknownJobError):
            jobs.get(made[0].id)
        assert jobs.get(made[3].id).state == "queued"  # non-terminal kept


class TestWorkQueueContract:
    def test_fifo_and_depth(self, stores):
        q = stores.work_queue
        q.push("job-000001")
        q.push("job-000002")
        assert q.depth() == 2
        assert "job-000001" in q
        assert q.pop(timeout=0.5) == "job-000001"
        assert q.pop(timeout=0.5) == "job-000002"
        assert q.pop(timeout=0.05) is None
        assert q.depth() == 0

    def test_bounded_push_raises(self, stores):
        q = stores.work_queue
        for i in range(q.limit):
            q.push(f"job-{i:06d}")
        with pytest.raises(QueueFullError):
            q.push("job-999999")

    def test_concurrent_pop_no_duplicates(self, stores):
        q = stores.work_queue
        ids = [f"job-{i:06d}" for i in range(8)]
        for jid in ids:
            q.push(jid)
        popped, lock = [], threading.Lock()

        def drain():
            while True:
                jid = q.pop(timeout=0.05)
                if jid is None:
                    return
                with lock:
                    popped.append(jid)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(popped) == ids  # every id exactly once

    def test_ensure_queued_jobs_enqueued(self, stores):
        rec = _record(stores.jobs)
        assert stores.work_queue.depth() == 0
        repushed = ensure_queued_jobs_enqueued(stores.jobs, stores.work_queue)
        assert repushed == [rec.id]
        assert stores.work_queue.pop(timeout=0.5) == rec.id
        # already enqueued → not repushed again
        stores.work_queue.push(rec.id)
        assert ensure_queued_jobs_enqueued(stores.jobs, stores.work_queue) == []

    def test_ensure_respects_age_filter(self, stores):
        rec = _record(stores.jobs)  # queued_at = 100.0
        out = ensure_queued_jobs_enqueued(
            stores.jobs, stores.work_queue, older_than_s=60.0, now=120.0
        )
        assert out == []  # too fresh
        out = ensure_queued_jobs_enqueued(
            stores.jobs, stores.work_queue, older_than_s=60.0, now=500.0
        )
        assert out == [rec.id]


class TestDatasetStoreContract:
    def test_put_get_roundtrip(self, stores):
        ds = stores.datasets
        pts = np.arange(10, dtype=np.float64).reshape(5, 2)
        rec = DatasetRecord(
            id="ds-abc", fingerprint="f" * 64, kind="points",
            params={"metric": "euclidean"}, n=5, metric_name="EuclideanMetric",
            created_at=1.0,
        )
        ds.put(rec, pts)
        got = ds.get("ds-abc")
        assert got is not None
        assert got.n == 5
        assert got.params == {"metric": "euclidean"}
        loaded = ds.load_points("f" * 64)
        np.testing.assert_array_equal(loaded, pts)
        assert ds.get("ds-missing") is None
        assert ds.load_points("0" * 64) is None

    def test_put_idempotent(self, stores):
        ds = stores.datasets
        rec = DatasetRecord(
            id="ds-abc", fingerprint="f" * 64, kind="workload",
            params={"workload": "gaussian", "n": 10, "seed": 0}, n=10,
            metric_name="EuclideanMetric",
        )
        ds.put(rec, None)
        ds.put(rec, None)
        assert len(ds) == 1
        assert "ds-abc" in ds
        assert ds.find_fingerprint("f" * 64).id == "ds-abc"
        assert ds.find_fingerprint("0" * 64) is None

    def test_list_in_registration_order(self, stores):
        ds = stores.datasets
        for i in range(3):
            ds.put(
                DatasetRecord(
                    id=f"ds-{i}", fingerprint=f"{i}" * 64, kind="workload",
                    params={}, n=4, metric_name="M",
                ),
                None,
            )
        assert [r.id for r in ds.list()] == ["ds-0", "ds-1", "ds-2"]


class TestResultStoreContract:
    KEY1 = ("fp1", "kcenter", 4, 0.1, None, 0, "contiguous", "auto", "paper", None, None)
    KEY2 = ("fp2", "kcenter", 4, 0.1, None, 0, "contiguous", "auto", "paper", None, None)

    def test_miss_then_hit(self, stores):
        cache = stores.results
        assert cache.get(self.KEY1) is None
        cache.put(self.KEY1, {"radius": 1.5}, run_log=None)
        payload, _ = cache.get(self.KEY1)
        assert payload == {"radius": 1.5}
        stats = cache.stats()
        assert stats["hits_total"] == 1
        assert stats["misses_total"] == 1
        assert len(cache) == 1
        assert self.KEY1 in cache
        assert self.KEY2 not in cache

    def test_first_writer_wins(self, stores):
        cache = stores.results
        cache.put(self.KEY1, {"v": 1})
        cache.put(self.KEY1, {"v": 2})
        payload, _ = cache.get(self.KEY1)
        assert payload == {"v": 1}

    def test_clear(self, stores):
        cache = stores.results
        cache.put(self.KEY1, {"v": 1})
        cache.clear()
        assert len(cache) == 0
        assert cache.get(self.KEY1) is None


class TestSqliteSpecifics:
    """Durability behaviours only the SQLite backend can show."""

    def test_state_survives_reopen(self, tmp_path):
        state = str(tmp_path / "state")
        stores = open_stores(state, queue_limit=8)
        rec = _record(stores.jobs)
        claimed = stores.jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        claimed.state = "done"
        claimed.result = {"answer": 7}
        stores.jobs.finish(claimed, "w1")
        stores.datasets.put(
            DatasetRecord(
                id="ds-1", fingerprint="a" * 64, kind="points",
                params={"metric": "euclidean"}, n=3, metric_name="EuclideanMetric",
            ),
            np.eye(3),
        )
        stores.results.put(self_key := ("fp", "kcenter", 2), {"r": 1.0})

        reopened = open_stores(state, queue_limit=8)
        assert reopened.jobs.get(rec.id).result == {"answer": 7}
        assert reopened.datasets.get("ds-1").n == 3
        np.testing.assert_array_equal(
            reopened.datasets.load_points("a" * 64), np.eye(3)
        )
        assert reopened.results.get(self_key)[0] == {"r": 1.0}

    def test_queue_shared_between_handles(self, tmp_path):
        state = str(tmp_path / "state")
        a = open_stores(state, queue_limit=8)
        b = open_stores(state, queue_limit=8)
        a.work_queue.push("job-000001")
        assert b.work_queue.depth() == 1
        assert b.work_queue.pop(timeout=0.5) == "job-000001"
        assert a.work_queue.depth() == 0

    def test_next_job_id_unique_across_handles(self, tmp_path):
        state = str(tmp_path / "state")
        a = open_stores(state, queue_limit=8)
        b = open_stores(state, queue_limit=8)
        ids = [a.jobs.next_job_id(), b.jobs.next_job_id(), a.jobs.next_job_id()]
        assert len(set(ids)) == 3

    def test_result_store_eviction_fifo(self, tmp_path):
        stores = open_stores(str(tmp_path / "state"), cache_entries=2)
        cache = stores.results
        cache.put(("k", 1), {"v": 1})
        cache.put(("k", 2), {"v": 2})
        cache.put(("k", 3), {"v": 3})
        assert len(cache) == 2
        assert cache.get(("k", 1)) is None  # oldest evicted
        assert cache.get(("k", 3))[0] == {"v": 3}

    def test_run_log_pickle_roundtrip(self, tmp_path):
        from repro.obs.record import RunLog

        stores = open_stores(str(tmp_path / "state"))
        rec = _record(stores.jobs)
        claimed = stores.jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        claimed.state = "done"
        log = RunLog()
        log.meta["n"] = 123
        claimed.run_log = log
        stores.jobs.finish(claimed, "w1")
        got = stores.jobs.get(rec.id)
        assert got.run_log is not None
        assert got.run_log.meta["n"] == 123


class TestLifecycleInvariants:
    """Transitions the two backends must decide identically."""

    def test_finalize_race_threaded_one_winner(self, stores):
        analyses = stores.analyses
        rec = analyses.create(AnalysisRecord(
            id=analyses.next_analysis_id(), spec={"ks": [2]}, created_at=1.0,
            cell_job_ids=["job-000001"],
        ))
        results = []
        barrier = threading.Barrier(4)

        def contender(i):
            final = AnalysisRecord(
                id=rec.id, spec=dict(rec.spec), state="done", created_at=1.0,
                finished_at=2.0, cell_job_ids=list(rec.cell_job_ids),
                report={"winner": i},
            )
            barrier.wait()
            results.append(analyses.finalize(final))

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winners = [r for r in results if r is not None]
        assert len(winners) == 1
        assert analyses.get(rec.id).report == winners[0].report
        assert analyses.get(rec.id).version == rec.version + 1

    def test_set_cancel_requested_twice_bumps_version_once(self, jobs):
        rec = _record(jobs)
        first = jobs.set_cancel_requested(rec.id)
        second = jobs.set_cancel_requested(rec.id)
        assert first.cancel_requested and second.cancel_requested
        assert first.id == second.id == rec.id
        assert first.version == second.version == rec.version + 1
        assert jobs.get(rec.id).version == rec.version + 1

    def test_transitions_of_unknown_id_return_none(self, jobs):
        assert jobs.claim("job-424242", "w1", lease_expires_at=1e12) is None
        assert jobs.heartbeat("job-424242", "w1", lease_expires_at=1e12) is None
        ghost = JobRecord(id="job-424242", spec={}, state="done")
        assert jobs.finish(ghost, "w1") is None


class TestCancelRequests:
    """A stored cancel request outlives the lease holder's writes."""

    def test_request_after_claim_survives_finish_to_done(self, jobs):
        rec = _record(jobs)
        claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        jobs.set_cancel_requested(rec.id)
        claimed.state = "done"
        claimed.result = {"answer": 42}
        finished = jobs.finish(claimed, "w1")
        assert finished.state == "done" and finished.cancel_requested
        assert jobs.get(rec.id).cancel_requested

    def test_requeue_of_a_cancel_requested_job_ends_it(self, jobs):
        rec = _record(jobs)
        claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        jobs.set_cancel_requested(rec.id)
        claimed.state = "queued"  # a crash retry, as JobManager writes it
        claimed.attempt += 1
        finished = jobs.finish(claimed, "w1")
        assert finished.state == "cancelled" and finished.cancel_requested
        got = jobs.get(rec.id)
        assert got.state == "cancelled" and got.cancel_requested
        assert got.attempt == rec.attempt  # the retry never ran
        assert jobs.claim(rec.id, "w1", lease_expires_at=1e12) is None

    def test_cancel_ends_a_queued_job_in_one_write(self, jobs):
        rec = _record(jobs)
        cancelled = jobs.set_cancel_requested(rec.id)
        assert cancelled.state == "cancelled" and cancelled.cancel_requested
        assert cancelled.finished_at is not None
        assert cancelled.version == rec.version + 1

    def test_cancel_of_a_terminal_job_writes_nothing(self, jobs):
        rec = _record(jobs)
        claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        claimed.state = "done"
        done = jobs.finish(claimed, "w1")
        again = jobs.set_cancel_requested(rec.id)
        assert again.state == "done" and not again.cancel_requested
        assert again.version == done.version

    def test_end_queued(self, jobs):
        rec = _record(jobs)
        assert jobs.end_queued(rec.id) is None  # no request, no error: kept
        failed = jobs.end_queued(rec.id, "retry abandoned")
        assert failed.state == "failed" and failed.error == "retry abandoned"
        assert failed.finished_at is not None
        running = _record(jobs)
        jobs.claim(running.id, "w1", lease_expires_at=1e12)
        assert jobs.end_queued(running.id, "x") is None
        assert jobs.end_queued("job-424242", "x") is None

    def test_end_queued_honours_a_stored_request(self, jobs):
        # an older release cancelled a queued job in two writes; a crash
        # between them leaves a queued record that carries the request
        rec = _record(jobs, cancel_requested=True)
        assert jobs.claim(rec.id, "w1", lease_expires_at=1e12) is None
        ended = jobs.end_queued(rec.id)
        assert ended.state == "cancelled" and ended.error is None


class TestSqliteCounters:
    def test_next_ids_continue_existing_counters(self, tmp_path):
        state = tmp_path / "state"
        stores = open_stores(str(state))
        conn = sqlite3.connect(str(state / "service.db"))
        conn.executemany(
            "INSERT OR REPLACE INTO counters (name, value) VALUES (?, ?)",
            [("job_id", 41), ("analysis_id", 6)],
        )
        conn.commit()
        conn.close()
        assert stores.jobs.next_job_id() == "job-000042"
        assert stores.analyses.next_analysis_id() == "an-000007"


class TestUpdateStress:
    def test_concurrent_heartbeats_lose_no_write(self, jobs):
        """Every write raises ``version`` by exactly one, so a lost
        read-change-write would leave the final version short."""
        rec = _record(jobs)
        claimed = jobs.claim(rec.id, "w1", lease_expires_at=1e12)
        threads_n, beats = 8, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def beat(i):
                for j in range(beats):
                    jobs.heartbeat(rec.id, "w1", 1e12 + i * beats + j)

            threads = [threading.Thread(target=beat, args=(i,)) for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert jobs.get(rec.id).version == claimed.version + threads_n * beats
