"""Tests for the local-work executors: process execution must be a
bit-for-bit drop-in for serial — results, communication ledger, and
oracle counters alike."""

import gc
import json
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
from repro.mpc import blas
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import (
    _Pool,
    BACKENDS,
    ExecutionBackend,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)


class TestExecutorsDirect:
    def test_serial_order(self):
        out = SerialExecutor().map_indexed(lambda i: i * i, 5)
        assert out == [0, 1, 4, 9, 16]

    def test_shutdown_idempotent(self):
        ex = _process_executor()
        ex.map_indexed(lambda i: i, 4)
        ex.shutdown()
        ex.shutdown()


class TestBitIdenticalResults:
    """Same seed + process executor == same seed + serial executor."""

    @pytest.fixture
    def metric(self, rng):
        return EuclideanMetric(rng.normal(scale=3.0, size=(300, 2)))

    def run_both(self, metric, fn):
        out = []
        for executor in (SerialExecutor(), _process_executor()):
            cluster = MPCCluster(metric, 4, seed=7, executor=executor)
            out.append((fn(cluster), cluster))
            executor.shutdown()
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
        for ex in (SerialExecutor(), ProcessExecutor()):
            assert isinstance(ex, ExecutionBackend)

    def test_factory_names_and_aliases(self):
        from repro.mpc.remote import RemoteExecutor

        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)
        assert isinstance(get_executor("remote"), RemoteExecutor)
        assert BACKENDS == ("serial", "process", "remote")

    def test_factory_passthrough_and_errors(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")
        with pytest.raises(TypeError):
            get_executor(42)

    def test_factory_forwards_max_workers(self):
        assert get_executor("process", max_workers=3).max_workers == 3

    def test_unknown_backend_error_lists_valid_names(self):
        """The error must name every valid backend, so a typo'd config
        is self-documenting; the removed thread backend is one such
        typo."""
        for name in ("gpu", "thread"):
            with pytest.raises(ValueError) as exc:
                get_executor(name)
            assert str(exc.value).endswith(
                "valid backends: 'serial', 'process', 'remote'")


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

    def test_effective_workers_serial(self):
        assert SerialExecutor().effective_workers(16) == 1

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


def _socket_inodes(pid: int) -> set:
    """The sockets a process holds open, as ``socket:[inode]`` strings."""
    fd_dir = Path(f"/proc/{pid}/fd")
    out = set()
    for fd in fd_dir.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:"):
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
        # a worker holds no driver-side socket end of any worker, of
        # either pool: each socket pair has one end per side, so a lost
        # peer shows as EOF or EPIPE
        driver_ends = {
            os.readlink(f"/proc/self/fd/{w.sock.fileno()}")
            for ex in executors for w in ex._pool.workers
        }
        assert len(driver_ends) == 4
        for pid in (pid for p in pids for pid in p):
            held = _socket_inodes(pid)
            assert held  # its own end
            assert not held & driver_ends
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
        points = np.random.default_rng(4).normal(size=(9000, 16))
        gc.collect()
        gc.disable()
        try:
            cluster = repro.build_cluster(points, machines=4, seed=1, backend="process")
            if cluster.executor.fallback_reason:
                pytest.skip(cluster.executor.fallback_reason)
            ref = weakref.ref(cluster)
            repro.solve_diversity(k=4, eps=0.5, cluster=cluster)
            pids = _pool_pids(cluster.executor)
            assert pids
            del cluster
            assert ref() is None
            assert not _child_pids() & set(pids)
        finally:
            gc.enable()

    def test_large_matrix_stays_where_pointset_built_it(self):
        # a fresh interpreter, so the resource tracker check sees only
        # this solve; 9000 x 16 doubles is 1.15 MB
        script = textwrap.dedent("""
            import json
            from multiprocessing import resource_tracker
            import numpy as np
            import repro
            from repro.metric.euclidean import EuclideanMetric
            from repro.metric.oracle import CountingOracle
            from repro.mpc.executor import ProcessExecutor

            ex = ProcessExecutor(max_workers=2)
            if ex.fallback_reason:
                print(json.dumps({"skip": ex.fallback_reason}))
                raise SystemExit(0)
            metric = EuclideanMetric(np.random.default_rng(4).normal(size=(9000, 16)))
            data = metric.points.data
            oracle = CountingOracle(metric)
            cluster = repro.build_cluster(metric=oracle, machines=4, seed=1, backend=ex)
            res = repro.solve_diversity(k=4, eps=0.5, cluster=cluster)
            forked = [w for w in ex._pool.workers if w is not None]
            ledger = [oracle.calls, oracle.evaluations]
            ex.shutdown()
            print(json.dumps({
                "forked": len(forked),
                "serial_fallbacks": ex.recovery_stats()["serial_fallbacks"],
                "same_array": metric.points.data is data,
                "writeable": bool(data.flags.writeable),
                "tracker_pid": resource_tracker._resource_tracker._pid,
                "ids": res.ids.tolist(), "diversity": res.diversity,
                "ledger": ledger,
                "after_shutdown": metric.pairwise([0, 1], [2, 3]).tolist(),
            }))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                             capture_output=True, text=True, check=True)
        got = json.loads(out.stdout.splitlines()[-1])
        if "skip" in got:
            pytest.skip(got["skip"])
        assert got["forked"] == 2 and got["serial_fallbacks"] == 0
        # the workers read the read-only array PointSet built, and no
        # shared-memory segment (nor the tracker that watches one) exists
        assert got["same_array"] and not got["writeable"]
        assert got["tracker_pid"] is None
        metric = EuclideanMetric(np.random.default_rng(4).normal(size=(9000, 16)))
        oracle = CountingOracle(metric)
        cluster = repro.build_cluster(metric=oracle, machines=4, seed=1)
        serial = repro.solve_diversity(k=4, eps=0.5, cluster=cluster)
        assert got["ids"] == serial.ids.tolist()
        assert got["diversity"] == serial.diversity
        assert got["ledger"] == [oracle.calls, oracle.evaluations]
        assert got["after_shutdown"] == metric.pairwise([0, 1], [2, 3]).tolist()

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


class TestEventRouting:
    """One executor bound to two clusters reports each batch to the
    cluster whose machines it ran, not to the one bound last."""

    @pytest.fixture
    def executor(self, request):
        if request.param == "process":
            ex = _process_executor()
            yield ex
            ex.shutdown()
            return
        from repro.mpc.remote import RemoteExecutor, WorkerAgent

        agents = [WorkerAgent(slots=1) for _ in range(2)]
        ex = RemoteExecutor([a.start() for a in agents])
        yield ex
        ex.shutdown()
        for agent in agents:
            agent.stop()

    @pytest.mark.parametrize("executor", ["process", "remote"], indirect=True)
    def test_exec_spans_go_to_the_cluster_whose_batch_ran(self, rng, executor):
        from repro.obs import Recorder

        clusters = [
            MPCCluster(EuclideanMetric(rng.normal(scale=3.0, size=(300, 2))), 4,
                       seed=7, executor=executor)
            for _ in range(2)
        ]
        logs = [Recorder.attach(c, capture_messages=False).log for c in clusters]
        mpc_kcenter(clusters[0], 5, epsilon=0.2)
        assert logs[0].exec_spans and logs[1].exec_spans == []
        # every batch the executor ran left its spans in the first log
        assert {e.batch for e in logs[0].exec_spans} == set(range(1, executor._batch_no + 1))
