"""Tests for the local-work executors: threaded and process execution
must be bit-for-bit drop-ins for serial — results, communication
ledger, and oracle counters alike."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import mpc_diversity, mpc_k_bounded_mis, mpc_kcenter
from repro.faults import FaultPlan
from repro.mpc import blas, shm
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import (
    _Pool,
    BACKENDS,
    ExecutionBackend,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    get_executor,
)


class TestExecutorsDirect:
    def test_serial_order(self):
        out = SerialExecutor().map_indexed(lambda i: i * i, 5)
        assert out == [0, 1, 4, 9, 16]

    def test_threaded_order_preserved(self):
        ex = ThreadedExecutor(max_workers=4)
        out = ex.map_indexed(lambda i: i * i, 16)
        assert out == [i * i for i in range(16)]
        ex.shutdown()

    def test_threaded_single_task_inline(self):
        ex = ThreadedExecutor()
        assert ex.map_indexed(lambda i: i + 1, 1) == [1]
        assert ex._pool is None  # no pool spun up for one task

    def test_threaded_exception_propagates(self):
        ex = ThreadedExecutor(max_workers=2)

        def boom(i):
            if i == 3:
                raise RuntimeError("task 3 failed")
            return i

        with pytest.raises(RuntimeError, match="task 3"):
            ex.map_indexed(boom, 8)
        ex.shutdown()

    def test_shutdown_idempotent(self):
        ex = ThreadedExecutor()
        ex.map_indexed(lambda i: i, 4)
        ex.shutdown()
        ex.shutdown()


class TestBitIdenticalResults:
    """Same seed + threaded executor == same seed + serial executor."""

    @pytest.fixture
    def metric(self, rng):
        return EuclideanMetric(rng.normal(scale=3.0, size=(300, 2)))

    def run_both(self, metric, fn):
        out = []
        for executor in (SerialExecutor(), ThreadedExecutor(max_workers=8)):
            cluster = MPCCluster(metric, 4, seed=7, executor=executor)
            out.append((fn(cluster), cluster))
        return out

    def test_mis_identical(self, metric):
        (r1, c1), (r2, c2) = self.run_both(
            metric, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        assert np.array_equal(np.sort(r1.ids), np.sort(r2.ids))
        assert c1.stats.total_words == c2.stats.total_words
        assert c1.stats.rounds == c2.stats.rounds

    def test_kcenter_identical(self, metric):
        (r1, _), (r2, _) = self.run_both(
            metric, lambda c: mpc_kcenter(c, 6, epsilon=0.2)
        )
        assert r1.radius == r2.radius
        assert np.array_equal(np.sort(r1.centers), np.sort(r2.centers))

    def test_diversity_identical(self, metric):
        (r1, _), (r2, _) = self.run_both(
            metric, lambda c: mpc_diversity(c, 6, epsilon=0.2)
        )
        assert r1.diversity == r2.diversity

    def test_communication_ledger_identical(self, metric):
        (_, c1), (_, c2) = self.run_both(
            metric, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        for a, b in zip(c1.stats.rounds_log, c2.stats.rounds_log):
            assert np.array_equal(a.sent, b.sent)
            assert np.array_equal(a.received, b.received)


class TestProcessExecutorDirect:
    """max_workers is pinned > 1 so the fork path runs even on 1-core CI."""

    def test_order_preserved(self):
        ex = ProcessExecutor(max_workers=4)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        assert ex.map_indexed(lambda i: i * i, 16) == [i * i for i in range(16)]
        ex.shutdown()

    def test_closure_capture(self):
        # closures can't be pickled — fork-based workers must still see them
        offset = 1000
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        assert ex.map_indexed(lambda i: i + offset, 6) == [1000 + i for i in range(6)]
        ex.shutdown()

    def test_single_task_stays_in_driver(self):
        calls = []
        ex = ProcessExecutor(max_workers=4)
        # a driver-side mutation survives only if the task ran in-process
        assert ex.map_indexed(lambda i: calls.append(i) or i, 1) == [0]
        assert calls == [0]

    def test_exception_reraised_with_context(self):
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)

        def boom(i):
            if i == 3:
                raise RuntimeError("task 3 failed")
            return i

        # worker failure falls back to a serial re-run, which raises the
        # original exception with a real traceback
        with pytest.raises(RuntimeError, match="task 3"):
            ex.map_indexed(boom, 8)
        ex.shutdown()

    def test_unpicklable_result_falls_back(self):
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        out = ex.map_indexed(lambda i: lambda: i, 4)  # lambdas don't pickle
        assert [f() for f in out] == [0, 1, 2, 3]
        ex.shutdown()

    def test_fallback_reason_forces_serial(self):
        ex = ProcessExecutor(max_workers=4)
        ex.fallback_reason = "simulated platform without fork"
        assert ex.map_indexed(lambda i: i * 2, 8) == [i * 2 for i in range(8)]

    def test_shutdown_idempotent(self):
        ex = ProcessExecutor(max_workers=2)
        ex.shutdown()
        ex.shutdown()


class TestBackendProtocolAndFactory:
    def test_all_executors_satisfy_protocol(self):
        for ex in (SerialExecutor(), ThreadedExecutor(), ProcessExecutor()):
            assert isinstance(ex, ExecutionBackend)

    def test_factory_names_and_aliases(self):
        from repro.mpc.remote import RemoteExecutor

        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadedExecutor)
        assert isinstance(get_executor("threaded"), ThreadedExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)
        assert isinstance(get_executor("fork"), ProcessExecutor)
        assert isinstance(get_executor("remote"), RemoteExecutor)
        assert isinstance(get_executor("sockets"), RemoteExecutor)
        assert set(BACKENDS) == {"serial", "thread", "process", "remote"}

    def test_factory_passthrough_and_errors(self):
        ex = ThreadedExecutor()
        assert get_executor(ex) is ex
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")
        with pytest.raises(TypeError):
            get_executor(42)

    def test_factory_forwards_max_workers(self):
        assert get_executor("thread", max_workers=3).max_workers == 3
        assert get_executor("process", max_workers=3).max_workers == 3

    def test_unknown_backend_error_lists_valid_names(self):
        """The error must name every valid backend, so a typo'd config
        is self-documenting."""
        with pytest.raises(ValueError) as exc:
            get_executor("gpu")
        message = str(exc.value)
        for name in BACKENDS:
            assert repr(name) in message
        assert "'fork'" in message  # aliases listed too


class TestWorkerCountConfiguration:
    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert ProcessExecutor(max_workers=2).max_workers == 2

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        ex = ProcessExecutor()
        assert ex.max_workers == 3
        assert ex.effective_workers(8) <= 3

    def test_env_var_unset_means_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        ex = ProcessExecutor()
        assert ex.max_workers is None
        assert ex.effective_workers() == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["zero-ish", "0", "-2", "1.5"])
    def test_invalid_env_var_fails_loudly(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            ProcessExecutor()

    def test_effective_workers_capped_by_batch(self):
        ex = ProcessExecutor(max_workers=8)
        assert ex.effective_workers(3) == min(3, ex.effective_workers())

    def test_effective_workers_serial_and_thread(self):
        assert SerialExecutor().effective_workers(16) == 1
        assert ThreadedExecutor(max_workers=5).effective_workers(16) == 5
        assert ThreadedExecutor().effective_workers(4) == 4

    def test_thread_effective_workers_requires_count_when_unsized(self):
        # without max_workers the pool is sized from the batch — the
        # old code answered 1 here, understating the real parallelism
        with pytest.raises(ValueError, match="pass count"):
            ThreadedExecutor().effective_workers()
        assert ThreadedExecutor(max_workers=3).effective_workers() == 3

    def test_thread_effective_workers_reports_live_pool_size(self):
        ex = ThreadedExecutor()
        try:
            assert ex.map_indexed(lambda i: i * i, 4) == [0, 1, 4, 9]
            # the pool was sized by the first batch and is reused, so
            # that size is the honest answer for any later batch
            assert ex.effective_workers() == 4
            assert ex.effective_workers(16) == 4
        finally:
            ex.shutdown()

    def test_fallback_reports_one_worker(self):
        ex = ProcessExecutor(max_workers=8)
        ex.fallback_reason = "forced for the test"
        assert ex.effective_workers(16) == 1


class TestProcessBitIdentical:
    """Same seed + forked workers == same seed + serial, down to the
    CountingOracle ledger."""

    @pytest.fixture
    def pts(self, rng):
        return rng.normal(scale=3.0, size=(300, 2))

    def run_both(self, pts, fn):
        out = []
        for executor in (SerialExecutor(), ProcessExecutor(max_workers=4)):
            oracle = CountingOracle(EuclideanMetric(pts))
            cluster = MPCCluster(oracle, 4, seed=7, executor=executor)
            out.append((fn(cluster), cluster, oracle))
            executor.shutdown()
        return out

    def test_kcenter_identical(self, pts):
        (r1, c1, o1), (r2, c2, o2) = self.run_both(
            pts, lambda c: mpc_kcenter(c, 6, epsilon=0.2)
        )
        assert r1.radius == r2.radius
        assert np.array_equal(np.sort(r1.centers), np.sort(r2.centers))
        assert c1.stats.rounds == c2.stats.rounds

    def test_mis_identical(self, pts):
        (r1, c1, _), (r2, c2, _) = self.run_both(
            pts, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        assert np.array_equal(np.sort(r1.ids), np.sort(r2.ids))
        assert c1.stats.total_words == c2.stats.total_words

    def test_oracle_ledger_identical(self, pts):
        (_, _, o1), (_, _, o2) = self.run_both(
            pts, lambda c: mpc_kcenter(c, 6, epsilon=0.2)
        )
        assert o1.calls == o2.calls
        assert o1.evaluations == o2.evaluations

    def test_rng_streams_advance_identically(self, pts):
        """After a run, the driver-side machine RNGs must be in the same
        state on both backends — the next algorithm on the same cluster
        then also agrees."""
        (_, c1, _), (_, c2, _) = self.run_both(
            pts, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        for m1, m2 in zip(c1.machines, c2.machines):
            assert m1.rng.random() == m2.rng.random()


def _child_pids() -> set:
    """Pids of this process's children, unreaped zombies included."""
    me = os.getpid()
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while being listed
            continue
        if int(fields[1]) == me:
            pids.add(int(stat.parent.name))
    return pids


def _pipe_inodes(pid: int) -> set:
    """The pipes a process holds open, as ``pipe:[inode]`` strings."""
    fd_dir = Path(f"/proc/{pid}/fd")
    out = set()
    for fd in fd_dir.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("pipe:"):
            out.add(target)
    return out


def _pool_pids(ex) -> list:
    pool = ex._pool
    return [w.pid for w in pool.workers if w is not None] if pool is not None else []


def _process_executor(**kwargs) -> ProcessExecutor:
    kwargs.setdefault("max_workers", 2)
    ex = ProcessExecutor(**kwargs)
    if ex.fallback_reason:
        pytest.skip(ex.fallback_reason)
    return ex


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


class TestProcessPool:
    """Workers are forked once per bound cluster and kept until
    shutdown; no worker outlives its owner."""

    @pytest.fixture
    def pts(self, rng):
        return rng.normal(scale=3.0, size=(300, 2))

    def test_pool_is_reused_across_batches(self):
        ex = _process_executor()
        assert ex.map_indexed(lambda i: i * i, 8) == [i * i for i in range(8)]
        pids = _pool_pids(ex)
        assert len(pids) == 2
        for _ in range(3):
            assert ex.map_indexed(lambda i: i + 1, 8) == list(range(1, 9))
        assert _pool_pids(ex) == pids
        ex.shutdown()
        assert ex._pool is None

    @needs_proc
    @pytest.mark.parametrize("first", [0, 1])
    def test_two_live_pools_shut_down_in_either_order(self, first):
        executors = [_process_executor(), _process_executor()]
        barrier = threading.Barrier(2)
        results = {}

        def run(k):
            barrier.wait()
            results[k] = [executors[k].map_indexed(lambda i: i + 100 * k, 8)
                          for _ in range(4)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for k in range(2):
            assert results[k] == [[i + 100 * k for i in range(8)]] * 4
        pids = [_pool_pids(ex) for ex in executors]
        assert all(len(p) == 2 for p in pids)
        # a worker holds its own two pipes and no other worker's, of
        # either pool: each pipe has one reader and one writer, so a
        # lost peer shows as EOF or EPIPE
        pipes = {
            w.pid: {os.readlink(f"/proc/self/fd/{fd}") for fd in (w.task_fd, w.result_fd)}
            for ex in executors for w in ex._pool.workers
        }
        every_pipe = set().union(*pipes.values())
        for pid, own in pipes.items():
            assert _pipe_inodes(pid) & every_pipe == own
        done = threading.Event()

        def stop():
            for ex in (executors if first == 0 else executors[::-1]):
                ex.shutdown()
            done.set()

        stopper = threading.Thread(target=stop, daemon=True)
        stopper.start()
        stopper.join(timeout=10)
        assert done.is_set(), "pool shutdown hung"
        assert not _child_pids() & {pid for p in pids for pid in p}

    @needs_proc
    def test_no_child_remains_after_facade_solve(self, pts, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        forked = []
        spawn = _Pool._fork

        def recording_fork(pool):
            worker = spawn(pool)
            forked.append(worker.pid)
            return worker

        monkeypatch.setattr(_Pool, "_fork", recording_fork)
        res = repro.solve_kcenter(pts, k=5, machines=4, seed=1, backend="process")
        serial = repro.solve_kcenter(pts, k=5, machines=4, seed=1)
        assert res.radius == serial.radius
        assert forked and not _child_pids() & set(forked)

        forked.clear()
        # every machine task faults past its retry budget: the solve raises
        plan = FaultPlan(seed=1, machine_fault=1.0, machine_fault_attempts=10)
        with pytest.raises(repro.exceptions.MachineFault):
            repro.solve_diversity(pts, k=5, machines=4, seed=1, backend="process",
                                  faults=plan)
        assert forked and not _child_pids() & set(forked)

    def test_unpicklable_task_runs_serially(self):
        ex = _process_executor()
        lock = threading.Lock()

        def task(i):
            with lock:
                return i * i

        assert ex.map_indexed(task, 8) == [i * i for i in range(8)]
        stats = ex.recovery_stats()
        assert stats["serial_fallbacks"] == 1
        assert "cannot be sent to a pool worker" in stats["degradations"][0]
        assert "lock" in stats["degradations"][0]
        assert _pool_pids(ex) == []  # nothing was forked for it
        ex.shutdown()

    def test_one_executor_two_clusters(self, rng):
        sets = [rng.normal(scale=3.0, size=(300, 2)),
                rng.normal(scale=5.0, size=(260, 3))]

        def solve(points, executor):
            oracle = CountingOracle(EuclideanMetric(points))
            cluster = MPCCluster(oracle, 4, seed=7, executor=executor)
            return cluster, oracle

        ex = _process_executor()
        shared = [solve(points, ex) for points in sets]
        # solve the second cluster first, then the first: each batch
        # runs on a pool forked for its own metric
        got = {}
        for k in (1, 0):
            cluster, oracle = shared[k]
            res = mpc_kcenter(cluster, 5, epsilon=0.2)
            got[k] = (res.radius, res.centers.tolist(), oracle.calls, oracle.evaluations)
        for k, points in enumerate(sets):
            cluster, oracle = solve(points, SerialExecutor())
            res = mpc_kcenter(cluster, 5, epsilon=0.2)
            assert got[k] == (res.radius, res.centers.tolist(), oracle.calls,
                              oracle.evaluations)
        assert ex.recovery_stats()["serial_fallbacks"] == 0
        ex.shutdown()

    def test_worker_blas_threads_capped(self):
        if blas.thread_count() is None:
            pytest.skip("no BLAS thread setter found")
        ex = _process_executor()
        counts = ex.map_indexed(lambda i: (blas.thread_count(), os.getpid()), 2)
        assert {pid for _, pid in counts} == set(_pool_pids(ex))
        cap = max(1, (os.cpu_count() or 1) // 2)
        assert all(count <= cap for count, _ in counts)
        ex.shutdown()

    @needs_proc
    def test_dropped_cluster_frees_pool_and_segment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        # 9000 x 16 doubles is above the shared-memory threshold
        points = np.random.default_rng(4).normal(size=(9000, 16))
        gc.collect()
        gc.disable()
        try:
            cluster = repro.build_cluster(points, machines=4, seed=1, backend="process")
            if cluster.executor.fallback_reason:
                pytest.skip(cluster.executor.fallback_reason)
            ref = weakref.ref(cluster)
            segments = list(cluster.executor._shared)
            repro.solve_diversity(k=4, eps=0.5, cluster=cluster)
            pids = _pool_pids(cluster.executor)
            assert segments and pids
            del cluster
            assert ref() is None
            assert not any(handle in shm._live for handle in segments)
            assert not _child_pids() & set(pids)
        finally:
            gc.enable()

    @needs_proc
    def test_workers_exit_when_their_driver_dies(self, tmp_path):
        # the driver exits without shutdown or exit hooks
        script = textwrap.dedent("""
            import os, sys
            from repro.mpc.executor import ProcessExecutor
            ex = ProcessExecutor(max_workers=2)
            assert ex.map_indexed(lambda i: i, 4) == [0, 1, 2, 3]
            print(" ".join(str(w.pid) for w in ex._pool.workers), flush=True)
            os._exit(0)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        pids = [int(p) for p in out.stdout.split()]
        assert len(pids) == 2

        def alive(pid):
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                return False
            return fields[0] != "Z"

        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(alive(pid) for pid in pids)
