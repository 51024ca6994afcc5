"""Tests for retry/recovery across the service stack.

* :class:`RetryPolicy` — validation, deterministic backoff;
* :class:`JobManager` — crashed jobs re-enqueued with backoff, attempt
  history on the job record, recovery/exhaustion counters, spec-level
  budget override, and ``stop()`` reporting stuck workers instead of
  silently discarding them;
* :class:`ServiceClient` — transparent retry of injected ``429``/``503``
  storms and dropped connections, ``Retry-After`` honoured, and
  :meth:`ServiceClient.wait` surviving a server restart mid-poll.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs.record import RunLog
from repro.service import (
    JobManager,
    JobSpec,
    JobState,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    serve,
)
from repro.service.datasets import DatasetRegistry
from repro.service.http import run_in_thread


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-1.0)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.5)
        assert policy.delay(1, key="job-1") == policy.delay(1, key="job-1")
        assert policy.delay(1, key="job-1") != policy.delay(1, key="job-2")

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(max_retries=8, backoff_s=0.5, factor=2.0, max_backoff_s=3.0)
        for attempt in range(1, 9):
            base = min(0.5 * 2.0 ** (attempt - 1), 3.0)
            d = policy.delay(attempt, key="j")
            assert 0.75 * base <= d <= min(1.25 * base, 3.0)
        assert policy.delay(8, key="j") <= 3.0

    def test_to_dict(self):
        assert RetryPolicy(max_retries=2).to_dict()["max_retries"] == 2


@pytest.fixture
def registry():
    reg = DatasetRegistry()
    pts = np.random.default_rng(3).normal(scale=2.0, size=(80, 2))
    ds = reg.register_points(pts)
    return reg, ds


def flaky_execute_job(fail_times: int):
    """An execute_job stand-in that crashes its first ``fail_times``
    calls per job id, then succeeds — the transient-infrastructure
    failure the deterministic solver can't produce on its own."""
    calls = {}

    def fake(spec, dataset, **kwargs):
        job_id = kwargs.get("job_id", "?")
        calls[job_id] = calls.get(job_id, 0) + 1
        if calls[job_id] <= fail_times:
            raise OSError(f"synthetic infra crash #{calls[job_id]}")
        return {"record": {"ok": True}, "attempt_no": calls[job_id]}, RunLog()

    fake.calls = calls
    return fake


def make_manager(registry, monkeypatch, execute, **kwargs):
    reg, _ = registry
    monkeypatch.setattr("repro.service.jobs.execute_job", execute)
    kwargs.setdefault(
        "retry_policy",
        RetryPolicy(max_retries=3, backoff_s=0.01, max_backoff_s=0.05),
    )
    return JobManager(reg, workers=1, **kwargs).start()


class TestJobRetry:
    def test_flaky_job_recovers(self, registry, monkeypatch):
        _, ds = registry
        manager = make_manager(registry, monkeypatch, flaky_execute_job(2))
        try:
            job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=3))
            job = manager.wait(job.id, timeout=10)
            assert job.state == JobState.DONE
            assert job.result["attempt_no"] == 3
            assert job.attempt == 2 and len(job.attempts) == 2
            for i, record in enumerate(job.attempts):
                assert record["attempt"] == i
                assert f"synthetic infra crash #{i + 1}" in record["error"]
                assert record["backoff_s"] > 0
            stats = manager.stats()["retry"]
            assert stats["retries_total"] == 2
            assert stats["jobs_recovered_total"] == 1
            assert stats["jobs_exhausted_total"] == 0
            assert manager.recent_retry_activity()
            # the attempt history rides the public job record
            desc = job.describe()
            assert desc["attempt"] == 2 and len(desc["attempts"]) == 2
        finally:
            manager.stop()

    def test_budget_exhaustion_fails_terminally(self, registry, monkeypatch):
        _, ds = registry
        manager = make_manager(
            registry, monkeypatch, flaky_execute_job(99),
            retry_policy=RetryPolicy(max_retries=2, backoff_s=0.01),
        )
        try:
            job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=3))
            job = manager.wait(job.id, timeout=10)
            assert job.state == JobState.FAILED
            assert "synthetic infra crash #3" in job.error
            assert job.attempt == 2 and len(job.attempts) == 2
            stats = manager.stats()["retry"]
            assert stats["jobs_exhausted_total"] == 1
            assert stats["jobs_recovered_total"] == 0
        finally:
            manager.stop()

    def test_spec_overrides_the_policy_budget(self, registry, monkeypatch):
        _, ds = registry
        execute = flaky_execute_job(99)
        manager = make_manager(registry, monkeypatch, execute)  # policy allows 3
        try:
            job = manager.submit(
                JobSpec(algorithm="kcenter", dataset=ds.id, k=3, max_retries=0)
            )
            job = manager.wait(job.id, timeout=10)
            assert job.state == JobState.FAILED
            assert job.attempt == 0 and job.attempts == []
            assert execute.calls[job.id] == 1  # no retries at all
        finally:
            manager.stop()

    def test_default_policy_does_not_retry(self, registry, monkeypatch):
        _, ds = registry
        execute = flaky_execute_job(1)
        manager = make_manager(registry, monkeypatch, execute, retry_policy=RetryPolicy())
        try:
            job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=3))
            job = manager.wait(job.id, timeout=10)
            assert job.state == JobState.FAILED
            assert manager.stats()["retry"]["jobs_exhausted_total"] == 0  # budget was 0
        finally:
            manager.stop()

    def test_cancel_during_backoff_wins(self, registry, monkeypatch):
        _, ds = registry
        manager = make_manager(
            registry, monkeypatch, flaky_execute_job(99),
            retry_policy=RetryPolicy(max_retries=5, backoff_s=0.5, max_backoff_s=1.0),
        )
        try:
            job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=3))
            # wait for the first failure to schedule a retry, then cancel
            deadline = time.monotonic() + 5
            while (job := manager.get(job.id)).attempt == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert job.attempt >= 1
            manager.cancel(job.id)
            job = manager.wait(job.id, timeout=10)
            assert job.state == JobState.CANCELLED
        finally:
            manager.stop()


class TestStopReportsStuckWorkers:
    def test_stuck_worker_warns_and_shows_in_stats(self, registry, monkeypatch):
        _, ds = registry
        release = threading.Event()

        def hanging(spec, dataset, **kwargs):
            release.wait(timeout=30)
            return {"record": {}}, RunLog()

        manager = make_manager(
            registry, monkeypatch, hanging,
            retry_policy=RetryPolicy(), stop_timeout_s=0.2,
        )
        job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=3))
        deadline = time.monotonic() + 5
        while manager.get(job.id).state != JobState.RUNNING and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.warns(RuntimeWarning, match="still alive"):
            manager.stop(wait=True)
        assert manager.stats()["stuck_workers"]  # visible until it exits
        release.set()
        manager.wait(job.id, timeout=10)
        deadline = time.monotonic() + 5
        while manager.stats()["stuck_workers"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert manager.stats()["stuck_workers"] == []  # pruned once dead

    def test_clean_stop_does_not_warn(self, registry):
        reg, _ = registry
        manager = JobManager(reg, workers=2).start()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            manager.stop(wait=True)
        assert manager.stats()["stuck_workers"] == []

    def test_stop_timeout_validated(self, registry):
        reg, _ = registry
        with pytest.raises(ValueError, match="stop_timeout_s"):
            JobManager(reg, stop_timeout_s=0)


class TestClientTransportRetry:
    def run_server(self, **kwargs):
        kwargs.setdefault("workers", 1)
        srv = serve(port=0, **kwargs)
        run_in_thread(srv)
        return srv

    def test_survives_a_429_storm(self):
        srv = self.run_server(faults="seed=9,error_burst=4")
        try:
            client = ServiceClient(srv.url, retries=6, backoff_s=0.01)
            ds = client.register_workload("gaussian", 60, seed=1)
            assert ds["n"] == 60
            assert client.transport_retries >= 4
            assert srv.faults_injected >= 4
        finally:
            srv.shutdown_service()

    def test_survives_dropped_connections(self):
        srv = self.run_server(faults="seed=17,service_drop=0.5")
        try:
            client = ServiceClient(srv.url, retries=8, backoff_s=0.01)
            for _ in range(5):
                assert "queue_depth" in client.stats()
            assert client.transport_retries >= 1
        finally:
            srv.shutdown_service()

    def test_healthz_is_exempt_from_injection(self):
        srv = self.run_server(faults="seed=1,service_drop=1.0")
        try:
            # zero retries: only the exemption can make this succeed
            client = ServiceClient(srv.url, retries=0)
            health = client.healthz()
            assert health["status"] in ("ok", "degraded")
            with pytest.raises(ServiceError) as exc:
                client.stats()
            assert exc.value.status == 0  # transport failure, not an answer
        finally:
            srv.shutdown_service()

    def test_healthz_reports_degraded_after_faults(self):
        srv = self.run_server(faults="seed=9,error_burst=2")
        try:
            client = ServiceClient(srv.url, retries=4, backoff_s=0.01)
            client.stats()  # burns the burst through retries
            health = client.healthz()
            assert health["status"] == "degraded"
            assert "injected service faults in the last 60s" in health["degraded_because"]
            assert health["faults_injected"] == 2
            stats = client.stats()
            assert stats["service_faults"]["injected_total"] == 2
            assert "burst=2" in stats["service_faults"]["plan"]
        finally:
            srv.shutdown_service()

    def test_non_transient_errors_raise_immediately(self):
        srv = self.run_server()
        try:
            client = ServiceClient(srv.url, retries=5, backoff_s=0.01)
            with pytest.raises(ServiceError) as exc:
                client.job("job-999999")
            assert exc.value.status == 404
            assert client.transport_retries == 0
        finally:
            srv.shutdown_service()

    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("http://localhost:1", retries=-1)


class TestWaitSurvivesRestart:
    def test_wait_spans_a_server_restart(self, registry):
        reg, ds = registry
        manager = JobManager(reg, workers=1).start()
        manager.pause()  # hold the job queued across the restart
        time.sleep(0.25)  # let workers park (pause() takes one poll cycle)
        srv1 = serve(port=0, manager=manager)
        run_in_thread(srv1)
        port = srv1.server_address[1]
        client = ServiceClient(srv1.url, retries=2, backoff_s=0.01)
        job = client.submit(algorithm="kcenter", dataset=ds.id, k=3)

        outcome = {}

        def waiter():
            try:
                outcome["job"] = client.wait(job["id"], timeout=30, poll_s=0.02)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                outcome["error"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        # kill the HTTP front-end only; the manager (and the job) survive
        srv1.shutdown()
        srv1.server_close()
        time.sleep(0.3)  # let the waiter poll against a dead server
        srv2 = serve(port=port, manager=manager)
        run_in_thread(srv2)
        manager.resume()
        thread.join(timeout=30)
        try:
            assert "error" not in outcome, f"wait raised: {outcome.get('error')!r}"
            assert outcome["job"]["state"] == "done"
        finally:
            srv2.shutdown_service()

    def test_wait_poll_backoff_is_capped(self, registry):
        reg, ds = registry
        manager = JobManager(reg, workers=1).start()
        srv = serve(port=0, manager=manager)
        run_in_thread(srv)
        try:
            client = ServiceClient(srv.url)
            job = client.submit(algorithm="kcenter", dataset=ds.id, k=3)
            done = client.wait(job["id"], timeout=30, poll_s=0.01, max_poll_s=0.05)
            assert done["state"] == "done"
        finally:
            srv.shutdown_service()

    def test_wait_timeout_names_last_state(self, registry):
        reg, ds = registry
        manager = JobManager(reg, workers=1).start()
        manager.pause()
        time.sleep(0.25)  # let workers park (pause() takes one poll cycle)
        srv = serve(port=0, manager=manager)
        run_in_thread(srv)
        try:
            client = ServiceClient(srv.url)
            job = client.submit(algorithm="kcenter", dataset=ds.id, k=3)
            with pytest.raises(TimeoutError, match="still queued"):
                client.wait(job["id"], timeout=0.3, poll_s=0.02)
        finally:
            srv.shutdown_service()


class TestOneJobShape:
    def test_job_get_without_result_equals_its_list_entry(self, registry, monkeypatch):
        _, ds = registry
        crashed = set()

        def crash_seed_one_once(spec, dataset, **kwargs):
            if spec.seed == 1 and kwargs["job_id"] not in crashed:
                crashed.add(kwargs["job_id"])
                raise OSError("synthetic infra crash")
            return {"record": {"ok": True}}, RunLog()

        manager = make_manager(registry, monkeypatch, crash_seed_one_once)
        srv = serve(port=0, manager=manager)
        run_in_thread(srv)
        try:
            client = ServiceClient(srv.url, timeout=30.0)

            def submit(seed):
                return client.submit(algorithm="kcenter", dataset=ds.id, k=3, seed=seed)

            done = client.wait(submit(0)["id"], timeout=30)
            retried = client.wait(submit(1)["id"], timeout=30)
            manager.pause()
            time.sleep(0.25)  # let workers park (pause() takes one poll cycle)
            cancelled = client.cancel(submit(2)["id"])
            manager.resume()
            assert [done["state"], retried["state"], cancelled["state"]] == [
                "done", "done", "cancelled"]
            assert "attempts" not in done and len(retried["attempts"]) == 1

            listed = {job["id"]: job for job in client.jobs()}
            for job in (done, retried, cancelled):
                got = client.job(job["id"])
                got.pop("result", None)
                assert got == listed[job["id"]]
        finally:
            srv.shutdown_service()
