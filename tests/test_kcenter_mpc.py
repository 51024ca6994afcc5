"""Tests for Algorithm 5 — MPC (2+ε)-approximation k-center."""

import numpy as np
import pytest

from repro.analysis.validation import verify_kcenter_solution
from repro.baselines.exact import exact_kcenter
from repro.core.kcenter import mpc_kcenter, mpc_kcenter_coreset
from repro.exceptions import InfeasibleInstanceError
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster


class TestCoreset:
    def test_four_approximation_vs_exact(self, rng):
        pts = rng.normal(size=(20, 2))
        metric = EuclideanMetric(pts)
        for k in (2, 3):
            _, opt = exact_kcenter(metric, k)
            cluster = MPCCluster(metric, 3, seed=0)
            coreset = mpc_kcenter_coreset(cluster, k)
            Q, r = coreset.ids, coreset.value
            assert Q.size == k
            assert opt - 1e-9 <= r <= 4.0 * opt + 1e-9

    def test_r_is_actual_radius(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        coreset = mpc_kcenter_coreset(cluster, 8)
        Q, r = coreset.ids, coreset.value
        true_r = float(medium_metric.dist_to_set(np.arange(medium_metric.n), Q).max())
        assert r == pytest.approx(true_r)

    def test_two_round_structure(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        mpc_kcenter_coreset(cluster, 8)
        # coreset gather + center broadcast + radius gather = 3 rounds
        assert cluster.stats.rounds <= 4

    def test_k_bounds(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        with pytest.raises(InfeasibleInstanceError):
            mpc_kcenter_coreset(cluster, 0)
        with pytest.raises(InfeasibleInstanceError):
            mpc_kcenter_coreset(cluster, medium_metric.n + 1)


class TestApproximationFactor:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_factor_vs_exact_small(self, rng, k):
        pts = rng.normal(size=(18, 2))
        metric = EuclideanMetric(pts)
        _, opt = exact_kcenter(metric, k)
        cluster = MPCCluster(metric, 3, seed=1)
        eps = 0.1
        res = mpc_kcenter(cluster, k, epsilon=eps)
        assert res.radius <= 2.0 * (1.0 + eps) * opt + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factor_across_seeds(self, rng, seed):
        pts = np.random.default_rng(seed).normal(size=(16, 2))
        metric = EuclideanMetric(pts)
        _, opt = exact_kcenter(metric, 3)
        cluster = MPCCluster(metric, 4, seed=seed)
        res = mpc_kcenter(cluster, 3, epsilon=0.2)
        assert res.radius <= 2.0 * 1.2 * opt + 1e-9

    def test_radius_upper_bounded_by_tau(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        res = mpc_kcenter(cluster, 10, epsilon=0.2)
        assert res.radius <= res.tau + 1e-9

    def test_solution_validates(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        res = mpc_kcenter(cluster, 10, epsilon=0.2)
        verify_kcenter_solution(medium_metric, res.centers, 10, res.radius)

    def test_separated_clusters_recovered(self, rng):
        from repro.workloads.clustered import separated_clusters

        inst = separated_clusters(300, clusters=5, cluster_radius=1.0, separation=20.0, rng=rng)
        metric = EuclideanMetric(inst.points)
        cluster = MPCCluster(metric, 4, seed=0)
        res = mpc_kcenter(cluster, 5, epsilon=0.1)
        # optimal <= 1.0; the 2.2-factor guarantee puts us under 2.2
        assert res.radius <= 2.2 * inst.kcenter_upper_bound + 1e-9


class TestEdgeCases:
    def test_all_identical_points(self):
        metric = EuclideanMetric(np.zeros((50, 2)))
        cluster = MPCCluster(metric, 4, seed=0)
        res = mpc_kcenter(cluster, 3, epsilon=0.1)
        assert res.radius == 0.0

    def test_k_equals_n(self, rng):
        pts = rng.normal(size=(12, 2))
        metric = EuclideanMetric(pts)
        cluster = MPCCluster(metric, 3, seed=0)
        res = mpc_kcenter(cluster, 12, epsilon=0.1)
        assert res.radius == pytest.approx(0.0, abs=1e-9)

    def test_k_one(self, rng):
        pts = rng.normal(size=(30, 2))
        metric = EuclideanMetric(pts)
        _, opt = exact_kcenter(metric, 1)
        cluster = MPCCluster(metric, 3, seed=0)
        res = mpc_kcenter(cluster, 1, epsilon=0.2)
        assert res.radius <= 2.4 * opt + 1e-9

    def test_invalid_epsilon(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        with pytest.raises(ValueError):
            mpc_kcenter(cluster, 5, epsilon=0.0)

    def test_single_machine(self, rng):
        pts = rng.normal(size=(40, 2))
        metric = EuclideanMetric(pts)
        cluster = MPCCluster(metric, 1, seed=0)
        res = mpc_kcenter(cluster, 4, epsilon=0.2)
        verify_kcenter_solution(metric, res.centers, 4, res.radius)

    def test_result_metadata(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        res = mpc_kcenter(cluster, 8, epsilon=0.3)
        assert res.k == 8 and res.epsilon == 0.3
        assert res.rounds > 0
        assert res.coreset_value > 0
        assert "rounds" in res.stats

    def test_determinism(self, medium_metric):
        rads = []
        for _ in range(2):
            cluster = MPCCluster(medium_metric, 4, seed=33)
            rads.append(mpc_kcenter(cluster, 8, epsilon=0.2).radius)
        assert rads[0] == rads[1]
