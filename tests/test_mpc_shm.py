"""Shared-memory point-matrix backing (:mod:`repro.mpc.shm`)."""

import gc
import sys
import threading

import numpy as np
import pytest

import repro
from repro.metric.euclidean import EuclideanMetric
from repro.metric.matrix_metric import MatrixMetric
from repro.metric.oracle import CountingOracle
from repro.mpc import shm
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import ProcessExecutor
from repro.mpc.shm import SharedArray, share_metric_points

try:
    from multiprocessing import shared_memory  # noqa: F401
except ImportError:  # pragma: no cover
    pytest.skip("shared memory unavailable", allow_module_level=True)


class TestSharedArray:
    def test_roundtrip_and_readonly(self):
        src = np.arange(12.0).reshape(4, 3)
        handle = SharedArray(src)
        try:
            assert np.array_equal(handle.array, src)
            assert handle.array.dtype == src.dtype
            with pytest.raises(ValueError):
                handle.array[0, 0] = 99.0
        finally:
            handle.release()

    def test_release_keeps_mapping_alive(self):
        handle = SharedArray(np.ones((8, 2)))
        view = handle.array
        handle.release()
        handle.release()  # idempotent
        assert view.sum() == 16.0  # the view outlives the unlink


class TestShareMetricPoints:
    def test_small_arrays_stay_private(self):
        metric = EuclideanMetric(np.random.default_rng(0).normal(size=(50, 2)))
        assert share_metric_points(metric) is None  # below MIN_SHARED_BYTES

    def test_rebinds_buffer_transparently(self):
        rng = np.random.default_rng(0)
        metric = EuclideanMetric(rng.normal(size=(200, 2)))
        before = metric.pairwise(np.arange(10), np.arange(10, 20)).copy()
        handle = share_metric_points(metric, min_bytes=0)
        try:
            assert handle is not None
            assert np.array_equal(
                metric.pairwise(np.arange(10), np.arange(10, 20)), before
            )
            assert metric.points.data.base is not None  # buffer moved
        finally:
            handle.release()

    def test_unwraps_oracle_chain(self):
        metric = CountingOracle(
            EuclideanMetric(np.random.default_rng(1).normal(size=(100, 2)))
        )
        handle = share_metric_points(metric, min_bytes=0)
        try:
            assert handle is not None
        finally:
            handle.release()

    def test_matrix_metric_has_no_point_buffer(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert share_metric_points(MatrixMetric(D), min_bytes=0) is None


class TestExecutorIntegration:
    def test_bind_on_large_metric_and_shutdown(self):
        rng = np.random.default_rng(2)
        # 70k × 2 float64 ≈ 1.1 MB > MIN_SHARED_BYTES → shared
        metric = EuclideanMetric(rng.normal(size=(70_000, 2)))
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        MPCCluster(metric, 4, seed=0, executor=ex)
        assert len(ex._shared) == 1
        assert metric.points.data.base is not None
        d = metric.distance(0, 1)
        ex.shutdown()
        assert ex._shared == []
        assert metric.distance(0, 1) == d  # mapping still usable


class TestConcurrentRelease:
    def test_threads_lose_no_viewed_handle_and_close_the_rest(self):
        # more threads than cores, switching often: a lost update to the
        # retired list would drop a handle that a view still uses
        kept, dropped, errors = [], [], []

        def worker():
            try:
                for i in range(40):
                    handle = SharedArray(np.full(64, float(i)))
                    if i % 4 == 0:
                        kept.append((handle, handle.array))
                    else:
                        dropped.append(handle)
                    handle.release()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        shm._close_retired()
        assert not any(handle in shm._retired for handle in dropped)
        assert all(handle in shm._retired for handle, _ in kept)
        assert all(view[0] == view[-1] for _, view in kept)  # still readable
        handles = [handle for handle, _ in kept]
        kept.clear()  # drop the last views
        shm._close_retired()
        assert not any(handle in shm._retired for handle in handles)


class TestRetiredSegments:
    """Released segments are closed once no view uses them, so repeated
    process-backend solves do not keep one mapping per solve."""

    @pytest.fixture
    def points(self):
        # 9000 × 16 float64 ≈ 1.15 MB > MIN_SHARED_BYTES → shared
        return np.random.default_rng(4).normal(size=(9000, 16))

    @staticmethod
    def _mapped(before):
        gc.collect()  # finished clusters (and their executors) sit in cycles
        return [h for h in shm._live + shm._retired if h not in before]

    def _solve(self, seed, **where):
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        return repro.solve_diversity(k=4, machines=4, eps=0.5, seed=seed,
                                     backend=ex, **where)

    def test_fresh_metrics_do_not_accumulate(self, points):
        before = shm._live + shm._retired
        for seed in range(4):
            self._solve(seed, points=points)
            # at most the last solve's segment, which closes at the next bind
            assert len(self._mapped(before)) <= 1

    def test_reused_metric_keeps_one_segment_and_stays_usable(self, points):
        metric = EuclideanMetric(points)
        I, J = np.arange(0, 40), np.arange(100, 150)
        expect = metric.pairwise(I, J).copy()
        before = shm._live + shm._retired
        results = []
        for seed in range(4):
            results.append(self._solve(seed, metric=metric))
            # each bind moves the metric to a new segment; the old one closes
            assert len(self._mapped(before)) <= 1
        assert metric.points.data.base is not None  # still on a segment
        assert np.array_equal(metric.pairwise(I, J), expect)
        again = self._solve(0, metric=metric)
        assert np.array_equal(again.ids, results[0].ids)

    def test_sweep_spares_mappings_still_in_use(self, points):
        metric = EuclideanMetric(points)
        I, J = np.arange(0, 40), np.arange(100, 150)
        expect = metric.pairwise(I, J).copy()
        handle = share_metric_points(metric)
        handle.release()  # like shutdown(): unlinked, still viewed
        other = share_metric_points(EuclideanMetric(points))  # a bind sweeps
        other.release()
        assert handle in shm._retired
        assert other not in shm._retired  # nothing viewed it any more
        assert np.array_equal(metric.pairwise(I, J), expect)
