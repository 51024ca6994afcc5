"""Targeted tests for small branches not covered elsewhere."""

import numpy as np
import pytest

from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster


@pytest.fixture
def metric(rng):
    return EuclideanMetric(rng.normal(size=(30, 2)))


class TestMetricBranches:
    def test_argmax_dist_to_set_empty_candidates(self, metric):
        with pytest.raises(ValueError, match="empty"):
            metric.argmax_dist_to_set([], [0])

    def test_pairwise_empty_sides(self, metric):
        assert metric.pairwise([], [1, 2]).shape == (0, 2)
        assert metric.pairwise([1], []).shape == (1, 0)

    def test_count_within_empty_sides(self, metric):
        assert metric.count_within([], [0], 1.0).size == 0
        assert np.array_equal(metric.count_within([0, 1], [], 1.0), [0, 0])

    def test_dist_to_set_empty_queries(self, metric):
        assert metric.dist_to_set([], [0]).size == 0

    def test_diversity_empty(self, metric):
        assert np.isinf(metric.diversity([]))


class TestClusterBranches:
    def test_broadcast_points_with_columns(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        ids = cluster.central.local_ids[:3]
        cluster.broadcast_points_from_central(
            ids, columns={"p": np.arange(3, dtype=float)}, tag="x"
        )
        for mach in cluster.machines:
            assert mach.knows(ids)
        # columns cost one extra word per point
        r = cluster.stats.rounds_log[-1]
        pw = metric.point_words()
        assert r.sent[0] == 2 * 3 * (1 + pw + 1)  # two receivers

    def test_executor_shutdown_via_cluster(self, metric):
        from repro.mpc.executor import ProcessExecutor

        ex = ProcessExecutor(max_workers=2)
        cluster = MPCCluster(metric, 3, seed=0, executor=ex)
        out = cluster.map_machines(lambda mach: mach.id)
        assert out == [0, 1, 2]
        ex.shutdown()

    def test_partition_sizes(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        assert cluster.partition_sizes().sum() == 30

    def test_n_property(self, metric):
        assert MPCCluster(metric, 2, seed=0).n == 30


class TestConstantsEdge:
    def test_light_degree_bound_used_by_lemma(self):
        from repro.constants import TheoryConstants

        c = TheoryConstants.practical()
        # bound grows linearly in m
        assert c.light_degree_bound(100, 8) == pytest.approx(
            2 * c.light_degree_bound(100, 4)
        )
