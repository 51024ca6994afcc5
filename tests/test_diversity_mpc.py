"""Tests for Algorithm 2 — MPC (2+ε)-approximation k-diversity."""

import numpy as np
import pytest

from repro.analysis.validation import verify_diversity_solution
from repro.baselines.exact import exact_diversity
from repro.core.diversity import mpc_diversity, mpc_diversity_coreset
from repro.exceptions import InfeasibleInstanceError
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster


class TestCoreset:
    def test_four_approximation_vs_exact(self, rng):
        pts = rng.normal(size=(18, 2))
        metric = EuclideanMetric(pts)
        for k in (2, 3):
            _, opt = exact_diversity(metric, k)
            cluster = MPCCluster(metric, 3, seed=0)
            coreset = mpc_diversity_coreset(cluster, k)
            Q, r = coreset.ids, coreset.value
            assert Q.size == k
            assert opt / 4.0 - 1e-9 <= r <= opt + 1e-9

    def test_r_is_actual_diversity_of_q(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        coreset = mpc_diversity_coreset(cluster, 8)
        assert coreset.value == pytest.approx(float(medium_metric.diversity(coreset.ids)))

    def test_beats_indyk_coreset(self, medium_metric):
        """The max-with-local-diversities refinement can only help."""
        from repro.baselines.indyk import indyk_diversity

        cluster_a = MPCCluster(medium_metric, 4, seed=0)
        r_ours = mpc_diversity_coreset(cluster_a, 8).value
        cluster_b = MPCCluster(medium_metric, 4, seed=0)
        _, r_indyk = indyk_diversity(cluster_b, 8)
        assert r_ours >= r_indyk - 1e-9

    def test_k_validation(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        with pytest.raises(InfeasibleInstanceError):
            mpc_diversity_coreset(cluster, 1)
        with pytest.raises(InfeasibleInstanceError):
            mpc_diversity_coreset(cluster, medium_metric.n + 1)


class TestApproximationFactor:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_factor_vs_exact_small(self, rng, k):
        pts = rng.normal(size=(16, 2))
        metric = EuclideanMetric(pts)
        _, opt = exact_diversity(metric, k)
        cluster = MPCCluster(metric, 3, seed=1)
        eps = 0.1
        res = mpc_diversity(cluster, k, epsilon=eps)
        assert res.diversity >= opt / (2.0 * (1.0 + eps)) - 1e-9
        assert res.diversity <= opt + 1e-9  # cannot beat the optimum

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factor_across_seeds(self, seed):
        pts = np.random.default_rng(seed).normal(size=(15, 2))
        metric = EuclideanMetric(pts)
        _, opt = exact_diversity(metric, 3)
        cluster = MPCCluster(metric, 4, seed=seed)
        res = mpc_diversity(cluster, 3, epsilon=0.2)
        assert res.diversity >= opt / 2.4 - 1e-9

    def test_exactly_k_points(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        res = mpc_diversity(cluster, 9, epsilon=0.2)
        assert res.size == 9
        verify_diversity_solution(medium_metric, res.ids, 9, res.diversity)

    def test_diversity_at_least_coreset_value(self, medium_metric):
        """The ladder only improves on the 4-approx starting value."""
        cluster = MPCCluster(medium_metric, 4, seed=0)
        res = mpc_diversity(cluster, 8, epsilon=0.2)
        assert res.diversity >= res.coreset_value - 1e-9

    def test_gmm_tight_instance_shows_where_the_factor_two_lives(self):
        """The classic GMM-tight instance: colinear −1, 0, 1 with GMM
        starting in the middle gives div(T) = 1 while the optimal
        2-subset {−1, +1} has diversity 2.

        Instructive subtlety: at τ₁ the *middle point alone* is a
        maximal independent set (it dominates both extremes), and
        Definition 1 allows the k-bounded MIS to return it — so the
        ladder may stop at j = 0 without recovering the optimum.  That
        is precisely the behaviour the 2(1+ε) factor prices in, and the
        guarantee div ≥ opt/(2(1+ε)) must still hold."""
        metric = EuclideanMetric([[0.0], [-1.0], [1.0]])  # id 0 is the middle
        opt = 2.0
        eps = 0.3
        cluster = MPCCluster(metric, 1, seed=0)
        res = mpc_diversity(cluster, 2, epsilon=eps)
        assert res.coreset_value == pytest.approx(1.0)
        assert res.diversity >= opt / (2 * (1 + eps)) - 1e-9
        assert res.diversity <= opt + 1e-9


class TestEdgeCases:
    def test_all_identical_points_diversity_zero(self):
        metric = EuclideanMetric(np.zeros((30, 2)))
        cluster = MPCCluster(metric, 3, seed=0)
        res = mpc_diversity(cluster, 4, epsilon=0.1)
        assert res.diversity == 0.0
        assert res.size == 4

    def test_duplicates_dont_break(self, rng):
        base = rng.normal(size=(20, 2))
        pts = np.concatenate([base, base])  # every point duplicated
        metric = EuclideanMetric(pts)
        cluster = MPCCluster(metric, 4, seed=0)
        res = mpc_diversity(cluster, 5, epsilon=0.2)
        assert res.size == 5 and res.diversity > 0

    def test_k_equals_n(self, rng):
        pts = rng.normal(size=(10, 2))
        metric = EuclideanMetric(pts)
        _, opt = exact_diversity(metric, 10)
        cluster = MPCCluster(metric, 2, seed=0)
        res = mpc_diversity(cluster, 10, epsilon=0.2)
        assert res.diversity >= opt / 2.4 - 1e-9

    def test_invalid_epsilon(self, medium_metric):
        cluster = MPCCluster(medium_metric, 4, seed=0)
        with pytest.raises(ValueError):
            mpc_diversity(cluster, 5, epsilon=-0.5)

    def test_single_machine(self, rng):
        pts = rng.normal(size=(40, 2))
        metric = EuclideanMetric(pts)
        cluster = MPCCluster(metric, 1, seed=0)
        res = mpc_diversity(cluster, 4, epsilon=0.2)
        verify_diversity_solution(metric, res.ids, 4, res.diversity)

    def test_determinism(self, medium_metric):
        vals = []
        for _ in range(2):
            cluster = MPCCluster(medium_metric, 4, seed=17)
            vals.append(mpc_diversity(cluster, 8, epsilon=0.2).diversity)
        assert vals[0] == vals[1]
