"""Tests for warm-start re-solves (:class:`repro.core.warm.WarmStart`).

The composable-coreset structure makes incremental re-solves cheap:
after an append, each machine runs its GMM only over the *delta*
points and ships the parent's centers alongside, so the central stage
sees a summary of old + new without re-touching the old points.  The
tests pin down (a) validity — a warm solution is still a feasible
(2+ε)-style solution over the full child dataset, (b) the savings —
strictly fewer oracle evaluations than a cold solve of the same child,
and (c) determinism — warm results are backend-invariant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve_diversity, solve_kcenter
from repro.core import WarmStart, mpc_kcenter
from repro.exceptions import InfeasibleInstanceError
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.executor import ProcessExecutor
from tests.conftest import make_cluster


@pytest.fixture
def base_points(rng):
    return rng.normal(scale=3.0, size=(120, 2))


@pytest.fixture
def delta_points(rng):
    return rng.normal(loc=4.0, scale=3.0, size=(60, 2))


def _warm_from_cold(points, k, **kwargs):
    cold = solve_kcenter(points, k=k, **kwargs)
    return WarmStart(
        base_n=len(points),
        centers=np.asarray(cold.centers, dtype=np.int64),
        objective=float(cold.radius),
    )


class TestWarmStartValidation:
    def test_requires_centers(self):
        with pytest.raises(ValueError):
            WarmStart(base_n=10, centers=np.array([], dtype=np.int64))

    def test_rejects_out_of_range_centers(self):
        with pytest.raises(ValueError):
            WarmStart(base_n=10, centers=np.array([3, 10]))
        with pytest.raises(ValueError):
            WarmStart(base_n=10, centers=np.array([-1, 3]))

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            WarmStart(base_n=0, centers=np.array([0]))

    def test_centers_unique_sorted(self):
        ws = WarmStart(base_n=10, centers=np.array([7, 2, 7, 0]))
        assert ws.centers.tolist() == [0, 2, 7]

    def test_id_helpers(self):
        ws = WarmStart(base_n=10, centers=np.array([2, 7]))
        local = np.array([2, 5, 7, 11, 14])
        assert ws.delta_ids(local).tolist() == [11, 14]
        assert ws.local_centers(local).tolist() == [2, 7]

    def test_warm_start_beyond_dataset_infeasible(self, base_points):
        ws = WarmStart(base_n=500, centers=np.array([0, 1]))
        cluster = make_cluster(EuclideanMetric(base_points), m=4)
        with pytest.raises(InfeasibleInstanceError):
            mpc_kcenter(cluster, k=4, warm_start=ws)


class TestWarmKCenter:
    def test_warm_solution_is_valid(self, base_points, delta_points):
        k = 5
        ws = _warm_from_cold(base_points, k, seed=0, machines=4)
        combined = np.vstack([base_points, delta_points])
        warm = solve_kcenter(
            combined, k=k, seed=0, machines=4, warm_start=ws
        )
        metric = EuclideanMetric(combined)
        assert len(warm.centers) <= k
        covered = metric.dist_to_set(np.arange(len(combined)), warm.centers)
        assert float(covered.max()) <= warm.radius + 1e-9

    def test_warm_close_to_cold_quality(self, base_points, delta_points):
        k = 5
        ws = _warm_from_cold(base_points, k, seed=0, machines=4)
        combined = np.vstack([base_points, delta_points])
        warm = solve_kcenter(combined, k=k, seed=0, machines=4, warm_start=ws)
        cold = solve_kcenter(combined, k=k, seed=0, machines=4)
        # both carry the same (2+eps)(1+eps)-style guarantee, so they can
        # differ by at most that factor relative to each other
        assert warm.radius <= 3.0 * cold.radius
        assert cold.radius <= 3.0 * warm.radius

    def test_warm_saves_oracle_evaluations(self, base_points, delta_points):
        """The headline property: re-solving warm must cost strictly
        fewer oracle evaluations than solving the child cold."""
        k = 5
        ws = _warm_from_cold(base_points, k, seed=0, machines=4)
        combined = np.vstack([base_points, delta_points])

        cold_oracle = CountingOracle(EuclideanMetric(combined))
        solve_kcenter(k=k, seed=0, machines=4, metric=cold_oracle)
        cold_evals = cold_oracle.evaluations

        warm_oracle = CountingOracle(EuclideanMetric(combined))
        solve_kcenter(k=k, seed=0, machines=4, metric=warm_oracle,
                      warm_start=ws)
        warm_evals = warm_oracle.evaluations

        assert warm_evals < cold_evals

    def test_warm_deterministic_across_backends(
        self, base_points, delta_points
    ):
        k = 5
        combined = np.vstack([base_points, delta_points])
        pool = ProcessExecutor(max_workers=2)
        results = []
        for backend in ("serial", pool):
            ws = _warm_from_cold(base_points, k, seed=3, machines=4)
            res = solve_kcenter(
                combined, k=k, seed=3, machines=4,
                backend=backend, warm_start=ws,
            )
            results.append((res.centers.tolist(), res.radius, res.tau))
        pool.shutdown()
        assert results[0] == results[1]


class TestWarmDiversity:
    def test_warm_diversity_valid_and_deterministic(
        self, base_points, delta_points
    ):
        k = 5
        cold = solve_diversity(base_points, k=k, seed=0, machines=4)
        ws = WarmStart(
            base_n=len(base_points),
            centers=np.asarray(cold.ids, dtype=np.int64),
            objective=float(cold.diversity),
        )
        combined = np.vstack([base_points, delta_points])
        warm = solve_diversity(
            combined, k=k, seed=0, machines=4, warm_start=ws
        )
        assert len(warm.ids) == k
        assert warm.diversity > 0
        again = solve_diversity(
            combined, k=k, seed=0, machines=4, warm_start=ws
        )
        assert warm.ids.tolist() == again.ids.tolist()
        assert warm.diversity == again.diversity

    def test_warm_diversity_within_guarantee_of_cold(
        self, base_points, delta_points
    ):
        k = 5
        cold_base = solve_diversity(base_points, k=k, seed=0, machines=4)
        ws = WarmStart(
            base_n=len(base_points),
            centers=np.asarray(cold_base.ids, dtype=np.int64),
            objective=float(cold_base.diversity),
        )
        combined = np.vstack([base_points, delta_points])
        warm = solve_diversity(combined, k=k, seed=0, machines=4, warm_start=ws)
        cold = solve_diversity(combined, k=k, seed=0, machines=4)
        # diversity never shrinks below a constant factor of the cold run
        assert warm.diversity >= cold.diversity / 4.0
