"""Durability and multi-process semantics of the SQLite-backed service.

The ISSUE-7 acceptance bar:

(a) restart durability — stop a service after N jobs, reopen the same
    state directory → datasets, terminal results, and queued jobs
    survive, and results are bit-identical (CountingOracle ledger
    included) to an uninterrupted run;
(b) orphan recovery — a worker that dies mid-job (its process killed)
    stops heartbeating; a surviving manager detects the expired lease,
    re-enqueues through the retry machinery, and the re-run's result is
    bit-identical;
(c) cross-process cache sharing — a second process registering the
    same points (same fingerprint) gets the first process's cached
    result instantly;
(d) multiple workers + a frontend drain one shared queue concurrently.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.service import (
    DatasetRegistry,
    JobManager,
    JobSpec,
    JobState,
    open_stores,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def canon(payload):
    """A job payload with wall-clock noise removed: everything left —
    centers, radius, MPC accounting, CountingOracle ledger, per-phase
    round/word/call counts — is covered by the determinism guarantee
    and must be bit-identical across runs, backends, and processes."""
    return {
        **payload,
        "phases": [
            {k: v for k, v in row.items() if k != "wall_s"}
            for row in payload["phases"]
        ],
    }


@pytest.fixture
def points():
    return np.random.default_rng(11).normal(scale=2.0, size=(120, 2))


def make_manager(state_dir, *, role="all", workers=1, lease_s=0.4, **kw):
    stores = open_stores(state_dir, queue_limit=16)
    return JobManager(
        DatasetRegistry(stores.datasets),
        stores=stores,
        role=role,
        workers=workers,
        lease_s=lease_s,
        **kw,
    )


def run_reference(points, **spec_kw):
    """The uninterrupted single-process run every scenario compares to."""
    manager = make_manager(None)  # in-memory
    manager.stores.backend  # touch to be explicit: memory bundle
    ds = manager.datasets.register_points(points)
    manager.start()
    try:
        job = manager.submit(JobSpec(dataset=ds.id, **spec_kw))
        return manager.wait(job.id, timeout=120).result
    finally:
        manager.stop()


def make_manager_memory():
    return JobManager(DatasetRegistry(), workers=1)


class TestRestartDurability:
    def test_state_survives_restart_bit_identical(self, tmp_path, points):
        state = str(tmp_path / "state")
        reference = run_reference(points, algorithm="kcenter", k=6, seed=3)

        m1 = make_manager(state).start()
        ds = m1.datasets.register_points(points)
        spec = JobSpec(algorithm="kcenter", dataset=ds.id, k=6, seed=3)
        job = m1.submit(spec)
        done = m1.wait(job.id, timeout=120)
        assert done.state == JobState.DONE
        m1.stop()

        # a brand-new process on the same directory sees everything
        m2 = make_manager(state)
        assert len(m2.datasets) == 1
        assert m2.datasets.get(ds.id).fingerprint == ds.fingerprint
        revived = m2.get(job.id)
        assert revived.state == JobState.DONE
        # bit-identical to the uninterrupted in-memory run — centers,
        # radius, AND the CountingOracle ledger
        assert canon(revived.result) == canon(reference)
        assert revived.result == done.result
        m2.stop()

    def test_queued_jobs_resume_after_restart(self, tmp_path, points):
        state = str(tmp_path / "state")
        # frontend-only manager: accepts and persists, never executes
        front = make_manager(state, role="frontend").start()
        ds = front.datasets.register_points(points)
        ids = [
            front.submit(
                JobSpec(algorithm="kcenter", dataset=ds.id, k=4, seed=s)
            ).id
            for s in range(3)
        ]
        assert front.stats()["jobs_by_state"]["queued"] == 3
        front.stop()

        # restart as a full node: startup recovery re-pushes the queued
        # records into the (fresh) work queue and the pool drains them
        node = make_manager(state).start()
        try:
            for jid in ids:
                assert node.wait(jid, timeout=120).state == JobState.DONE
        finally:
            node.stop()


class TestOrphanRecovery:
    def _submit_and_orphan(self, state, points):
        """Persist a job, then have a *separate process* claim it and
        die (os._exit) without finishing — a real worker crash."""
        front = make_manager(state, role="frontend", lease_s=0.4).start()
        ds = front.datasets.register_points(points)
        job = front.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=5, seed=7))
        code = (
            "import os, sys, time\n"
            "from repro.service import open_stores\n"
            f"stores = open_stores({state!r})\n"
            f"jid = stores.work_queue.pop(timeout=5)\n"
            "assert jid is not None\n"
            "rec = stores.jobs.claim(jid, 'ghost:1', time.time() + 0.4)\n"
            "assert rec is not None\n"
            "os._exit(9)\n"  # SIGKILL-equivalent: no cleanup, lease dangles
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
        assert proc.returncode == 9
        assert front.get(job.id).state == JobState.RUNNING
        return front, job

    def test_orphan_requeued_and_result_bit_identical(self, tmp_path, points):
        state = str(tmp_path / "state")
        reference = run_reference(points, algorithm="kcenter", k=5, seed=7)
        front, job = self._submit_and_orphan(state, points)
        # stop the frontend's own sweeper before the ghost's lease can
        # expire, so the pass below is the only one that can reap it
        front.stop()
        survivor = make_manager(state, role="frontend", lease_s=0.4)  # never started

        time.sleep(0.5)  # let the ghost's lease expire
        recovered = survivor.recover_now()
        assert recovered["orphaned"] == 1
        assert recovered["requeued"] == 1
        stats = survivor.stats()
        assert stats["orphans"]["orphaned_total"] == 1
        assert stats["orphans"]["requeued_total"] == 1
        kinds = [e["kind"] for e in stats["orphans"]["recent_events"]]
        assert "worker_lost" in kinds and "orphan_requeue" in kinds
        assert survivor.recent_orphan_activity()
        rec = survivor.stores.jobs.get(job.id)
        assert rec.state == "queued"
        assert rec.attempt == 1
        assert "orphaned" in rec.attempts[-1]["error"]

        # a healthy worker node drains the requeued job; the result —
        # CountingOracle ledger included — matches the uninterrupted run
        worker = make_manager(state, role="worker", lease_s=5.0).start()
        try:
            done = survivor.wait(job.id, timeout=120)
            assert done.state == JobState.DONE
            assert done.attempt == 1  # recorded recovery, same answer
            assert canon(done.result) == canon(reference)
        finally:
            worker.stop()
            survivor.stop()

    def test_orphan_metrics_exported(self, tmp_path, points):
        state = str(tmp_path / "state")
        front, job = self._submit_and_orphan(state, points)
        time.sleep(0.5)
        front.recover_now()
        text = front.sync_metrics().render_prometheus()
        assert "repro_jobs_orphaned_total 1" in text
        assert "repro_jobs_orphan_requeued_total 1" in text
        front.stop()

    def test_orphan_budget_exhaustion_fails_job(self, tmp_path, points):
        state = str(tmp_path / "state")
        front = make_manager(
            state, role="frontend", lease_s=0.2, orphan_requeue_budget=0
        ).start()
        ds = front.datasets.register_points(points)
        job = front.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=4))
        jid = front.stores.work_queue.pop(timeout=2)
        assert front.stores.jobs.claim(jid, "ghost:1", time.time() + 0.2) is not None
        time.sleep(0.3)
        front.recover_now()
        done = front.get(job.id)
        assert done.state == JobState.FAILED
        assert "requeue budget" in done.error
        assert front.stats()["orphans"]["exhausted_total"] == 1
        front.stop()


class TestCrossProcessCacheSharing:
    def test_second_registration_hits_shared_cache(self, tmp_path, points):
        state = str(tmp_path / "state")
        m1 = make_manager(state).start()
        ds1 = m1.datasets.register_points(points)
        spec = dict(algorithm="kcenter", k=5, eps=0.2, seed=1)
        done = m1.wait(m1.submit(JobSpec(dataset=ds1.id, **spec)).id, timeout=120)
        assert done.cached is False
        m1.stop()

        # a different "process": fresh store handles, fresh registry —
        # the same bytes fingerprint to the same dataset id, and the
        # cache key (fingerprint-based) finds the stored result
        m2 = make_manager(state)
        ds2 = m2.datasets.register_points(points.copy())
        assert ds2.id == ds1.id and ds2.fingerprint == ds1.fingerprint
        job = m2.submit(JobSpec(dataset=ds2.id, **spec))
        assert job.cached is True
        assert job.state == JobState.DONE
        assert job.result == done.result
        assert m2.cache.stats()["hits_total"] >= 1
        m2.stop()

    def test_cache_shared_with_true_subprocess(self, tmp_path, points):
        state = str(tmp_path / "state")
        np.save(tmp_path / "pts.npy", points)
        code = (
            "import numpy as np\n"
            "from repro.service import DatasetRegistry, JobManager, JobSpec, open_stores\n"
            f"pts = np.load({str(tmp_path / 'pts.npy')!r})\n"
            f"stores = open_stores({state!r})\n"
            "mgr = JobManager(DatasetRegistry(stores.datasets), stores=stores, workers=1)\n"
            "mgr.start()\n"
            "ds = mgr.datasets.register_points(pts)\n"
            "job = mgr.submit(JobSpec(algorithm='kcenter', dataset=ds.id, k=5, seed=2))\n"
            "done = mgr.wait(job.id, timeout=120)\n"
            "assert done.state == 'done', done.error\n"
            "mgr.stop()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        mgr = make_manager(state)
        ds = mgr.datasets.register_points(points)
        job = mgr.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=5, seed=2))
        assert job.cached is True  # the subprocess's run was reused
        mgr.stop()


class TestSharedQueueConcurrency:
    def test_two_workers_one_frontend_drain_burst(self, tmp_path, points):
        state = str(tmp_path / "state")
        front = make_manager(state, role="frontend", lease_s=10.0).start()
        w1 = make_manager(state, role="worker", workers=1, lease_s=10.0,
                          worker_id="w1").start()
        w2 = make_manager(state, role="worker", workers=1, lease_s=10.0,
                          worker_id="w2").start()
        try:
            ds = front.datasets.register_points(points)
            ids = [
                front.submit(
                    JobSpec(algorithm="kcenter", dataset=ds.id, k=4, seed=s)
                ).id
                for s in range(6)
            ]
            done = [front.wait(jid, timeout=180) for jid in ids]
            assert all(j.state == JobState.DONE for j in done)
            # distinct seeds → distinct results, all completed exactly once
            workers_used = {
                front.stores.jobs.get(j.id).worker for j in done
            }
            assert workers_used == {None}  # finish clears the lease owner
            assert front.stats()["jobs_by_state"]["done"] == 6
        finally:
            w1.stop()
            w2.stop()
            front.stop()
