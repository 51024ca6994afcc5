"""Tests for the ProcessExecutor's fault-recovery ladder.

The worker-death branches: a forked chunk worker killed mid-chunk
(SIGKILL — it dies without reporting a byte), an undecodable payload,
the bounded chunk-retry path that re-executes only the affected chunks,
and the final degradation to a serial driver re-run when the budget is
exhausted.  ``max_workers`` is pinned > 1 throughout so the fork path
runs even on single-core CI.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core import mpc_kcenter
from repro.faults import FaultPlan
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import ProcessExecutor, _WorkerFailure
from repro.obs import Observer


def make_executor(**kwargs) -> ProcessExecutor:
    kwargs.setdefault("max_workers", 2)
    ex = ProcessExecutor(**kwargs)
    if ex.fallback_reason:
        pytest.skip(ex.fallback_reason)
    return ex


class TestWorkerDeath:
    """A worker that dies mid-chunk is detected and its chunk re-run."""

    def test_sigkill_mid_chunk_recovers(self, tmp_path):
        # the task SIGKILLs its own worker the first time index 0 runs —
        # a genuine kernel-delivered death, no atexit, no pipe flush.
        # The flag file makes the second (re-forked) execution succeed.
        flag = tmp_path / "killed-once"
        driver_pid = os.getpid()

        def task(i):
            if i == 0 and os.getpid() != driver_pid and not flag.exists():
                flag.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return i * i

        ex = make_executor()
        assert ex.map_indexed(task, 8) == [i * i for i in range(8)]
        stats = ex.recovery_stats()
        assert stats["chunk_retries"] == 1
        assert stats["serial_fallbacks"] == 0 and stats["degradations"] == []
        ex.shutdown()

    def test_injected_kill_dies_without_reporting(self):
        # plan-driven kill: the worker os._exit()s before writing a byte
        plan = FaultPlan(seed=3, worker_kill=1.0, worker_fault_attempts=1)
        ex = make_executor(faults=plan)
        assert ex.map_indexed(lambda i: i + 1, 6) == list(range(1, 7))
        stats = ex.recovery_stats()
        # both first-attempt chunks were killed and both were re-run
        assert stats["faults_injected"] == 2
        assert stats["chunk_retries"] == 2
        assert stats["serial_fallbacks"] == 0
        ex.shutdown()

    def test_only_dead_chunks_are_retried(self):
        # worker 0 faults, worker 1 doesn't (attempts=1 clears on retry);
        # a healthy chunk's tasks must not be re-executed
        plan = FaultPlan(seed=104, worker_kill=0.5, worker_fault_attempts=1)
        ex = make_executor()
        batch = ex._batch_no + 1
        faulted = [w for w in range(2) if plan.worker_fault(batch, w, 0)]
        if len(faulted) != 1:
            pytest.skip(f"seed does not single out one worker (got {faulted})")
        ex.set_fault_plan(plan)

        import tempfile
        with tempfile.TemporaryDirectory() as d:
            def task(i):
                # count executions per index via the filesystem: worker
                # mutations of driver state don't survive the fork
                path = os.path.join(d, f"ran-{i}")
                with open(path, "a") as fh:
                    fh.write("x")
                return i

            assert ex.map_indexed(task, 8) == list(range(8))
            runs = {
                i: len(open(os.path.join(d, f"ran-{i}")).read())
                for i in range(8)
            }
        healthy = 1 - faulted[0]
        # strided chunks: worker w owns indices w, w+2, w+4, ...
        assert all(runs[i] == 1 for i in range(healthy, 8, 2))
        assert all(runs[i] == 1 for i in range(faulted[0], 8, 2))  # killed pre-task
        ex.shutdown()


class TestIdleWorkerDeath:
    """A pool worker that dies between batches is replaced at the next."""

    def test_worker_killed_while_idle_is_replaced(self):
        pts = np.random.default_rng(11).normal(scale=3.0, size=(300, 2))

        def solve(executor, observer=None):
            oracle = CountingOracle(EuclideanMetric(pts))
            cluster = MPCCluster(oracle, 4, seed=7, executor=executor)
            if observer is not None:
                cluster.obs.add(observer)
            res = mpc_kcenter(cluster, 6, epsilon=0.2)
            return res.radius, res.centers.tolist(), oracle.calls, oracle.evaluations

        ex = make_executor()
        killed = []

        class KillIdleWorker(Observer):
            """SIGKILLs worker 0 at the first round barrier after the
            pool exists — between batches, while it waits for a frame."""

            wants_messages = False

            def on_round_end(self, record):
                pool = ex._pool
                if not killed and pool is not None and pool.workers[0] is not None:
                    killed.append(pool.workers[0].pid)
                    os.kill(killed[0], signal.SIGKILL)

        got = solve(ex, KillIdleWorker())
        assert killed
        assert got == solve(None)  # serial: results and ledger
        stats = ex.recovery_stats()
        assert stats["chunk_retries"] == 1
        assert stats["serial_fallbacks"] == 0 and stats["degradations"] == []
        assert ex._pool.workers[0].pid != killed[0]
        ex.shutdown()


class TestCorruptPayload:
    def test_undecodable_payload_recovers(self):
        plan = FaultPlan(seed=5, worker_corrupt=1.0, worker_fault_attempts=1)
        ex = make_executor(faults=plan)
        assert ex.map_indexed(lambda i: i * 3, 6) == [i * 3 for i in range(6)]
        stats = ex.recovery_stats()
        assert stats["faults_injected"] == 2 and stats["chunk_retries"] == 2
        ex.shutdown()

    def test_delay_is_not_a_failure(self):
        plan = FaultPlan(seed=5, worker_delay=1.0, worker_delay_s=0.01)
        ex = make_executor(faults=plan)
        assert ex.map_indexed(lambda i: i, 6) == list(range(6))
        stats = ex.recovery_stats()
        assert stats["faults_injected"] == 2  # stragglers are injected...
        assert stats["chunk_retries"] == 0    # ...but need no recovery
        ex.shutdown()


class TestRetryExhaustion:
    def test_persistent_faults_degrade_to_serial(self):
        # the fault out-persists the budget: every re-fork dies too
        plan = FaultPlan(seed=7, worker_kill=1.0, worker_fault_attempts=10)
        ex = make_executor(faults=plan, chunk_retries=2)
        assert ex.map_indexed(lambda i: i + 10, 6) == [i + 10 for i in range(6)]
        stats = ex.recovery_stats()
        assert stats["serial_fallbacks"] == 1
        assert len(stats["degradations"]) == 1
        reason = stats["degradations"][0]
        assert "died without reporting" in reason
        assert "chunk retry budget 2 exhausted" in reason
        ex.shutdown()

    def test_zero_retry_budget_fails_straight_to_serial(self):
        plan = FaultPlan(seed=7, worker_corrupt=1.0, worker_fault_attempts=10)
        ex = make_executor(faults=plan, chunk_retries=0)
        assert ex.map_indexed(lambda i: i, 4) == list(range(4))
        stats = ex.recovery_stats()
        assert stats["chunk_retries"] == 0 and stats["serial_fallbacks"] == 1
        assert "undecodable payload" in stats["degradations"][0]
        ex.shutdown()

    def test_negative_chunk_retries_rejected(self):
        with pytest.raises(ValueError, match="chunk_retries"):
            ProcessExecutor(max_workers=2, chunk_retries=-1)


class TestFailureAggregation:
    """_WorkerFailure messages carry every failed chunk's reason."""

    def test_multiple_fatal_chunks_all_reported(self):
        def boom(i):
            if i in (0, 1):  # one failure per strided chunk
                raise RuntimeError(f"task {i} failed")
            return i

        ex = make_executor()
        with pytest.raises(_WorkerFailure) as exc:
            ex._fork_map(boom, 8)
        message = str(exc.value)
        assert "task 0 failed" in message and "task 1 failed" in message
        ex.shutdown()

    def test_exhaustion_message_aggregates_every_attempt(self):
        plan = FaultPlan(seed=7, worker_kill=1.0, worker_fault_attempts=10)
        ex = make_executor(faults=plan, chunk_retries=1)
        with pytest.raises(_WorkerFailure) as exc:
            ex._fork_map(lambda i: i, 6)
        message = str(exc.value)
        # 2 chunks × 2 attempts, every loss named, plus the budget note
        assert message.count("died without reporting") == 4
        assert "chunk retry budget 1 exhausted" in message
        ex.shutdown()

    def test_fatal_outranks_lost(self):
        # a real exception aborts immediately (it is deterministic);
        # the public path re-raises it from the serial re-run
        plan = FaultPlan(seed=3, worker_kill=0.5, worker_fault_attempts=10)

        def boom(i):
            if i == 1:
                raise RuntimeError("task 1 failed")
            return i

        ex = make_executor(faults=plan)
        with pytest.raises(RuntimeError, match="task 1"):
            ex.map_indexed(boom, 8)
        assert ex.recovery_stats()["serial_fallbacks"] == 1
        ex.shutdown()


class FakeMachine:
    """A machine stand-in; module level, so it pickles by reference into
    pool workers."""

    def __init__(self, i):
        self.id = i
        self.rng = np.random.default_rng(i)


class TestMapMachinesRecovery:
    """Recovered map_machines batches keep the RNG/oracle replay exact
    (the end-to-end bit-identity proof lives in test_faults.py)."""

    def test_rng_replay_survives_chunk_retry(self):
        def draw(mach):
            return float(mach.rng.random())

        serial = [draw(FakeMachine(i)) for i in range(6)]

        plan = FaultPlan(seed=3, worker_kill=1.0, worker_fault_attempts=1)
        ex = make_executor(faults=plan)
        machines = [FakeMachine(i) for i in range(6)]
        assert ex.map_machines(draw, machines) == serial
        assert ex.recovery_stats()["chunk_retries"] == 2
        # replayed RNG state: the next driver-side draw continues the
        # stream exactly where the (re-forked) worker left it
        expected_next = [np.random.default_rng(i).random(2)[1] for i in range(6)]
        assert [m.rng.random() for m in machines] == expected_next
        ex.shutdown()
