"""Cross-cutting integration: exotic metric × application combinations
and executor coverage of every application."""

import numpy as np

from repro.analysis.validation import (
    verify_diversity_solution,
    verify_ksupplier_solution,
)
from repro.core import mpc_diversity, mpc_ksupplier
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import ProcessExecutor
from repro.workloads.geo import world_cities_metric
from repro.workloads.graphs import grid_graph_metric


class TestExoticCombos:
    def test_ksupplier_on_grid_graph(self):
        """Facility location along a grid road network."""
        metric = grid_graph_metric(12, 12)  # 144 nodes
        ids = np.arange(144)
        customers, suppliers = ids[:100], ids[100:]
        cluster = MPCCluster(metric, 3, seed=0)
        res = mpc_ksupplier(cluster, customers, suppliers, 5, epsilon=0.3)
        verify_ksupplier_solution(
            metric, customers, suppliers, res.suppliers, 5, res.radius
        )

    def test_diversity_on_sphere(self, rng):
        metric, _ = world_cities_metric(250, rng=rng)
        cluster = MPCCluster(metric, 4, seed=0)
        res = mpc_diversity(cluster, 6, epsilon=0.3)
        verify_diversity_solution(metric, res.ids, 6, res.diversity)
        # six spread cities on Earth are thousands of km apart
        assert res.diversity > 1000.0

    def test_ksupplier_process_executor_identical(self, rng):
        pts = rng.normal(size=(150, 2))
        metric = EuclideanMetric(pts)
        C, S = np.arange(100), np.arange(100, 150)
        radii = []
        for executor in (None, ProcessExecutor(max_workers=2)):
            cluster = MPCCluster(metric, 4, seed=3, executor=executor)
            radii.append(
                mpc_ksupplier(cluster, C, S, 4, epsilon=0.25).radius
            )
            cluster.executor.shutdown()
        assert radii[0] == radii[1]

    def test_dominating_set_process_identical(self, rng):
        from repro.core import mpc_dominating_set

        pts = rng.uniform(0, 12, size=(200, 2))
        metric = EuclideanMetric(pts)
        sizes = []
        for executor in (None, ProcessExecutor(max_workers=2)):
            cluster = MPCCluster(metric, 4, seed=4, executor=executor)
            sizes.append(mpc_dominating_set(cluster, 1.0).size)
            cluster.executor.shutdown()
        assert sizes[0] == sizes[1]


class TestCollectiveEdgeCases:
    def test_broadcast_include_self(self, rng):
        metric = EuclideanMetric(rng.normal(size=(20, 2)))
        cluster = MPCCluster(metric, 3, seed=0)
        cluster.broadcast(1, 9.0, include_self=True)
        inboxes = cluster.step()
        assert len(inboxes[1]) == 1

    def test_all_to_all_with_empty_batches(self, rng):
        metric = EuclideanMetric(rng.normal(size=(20, 2)))
        cluster = MPCCluster(metric, 3, seed=0)
        batches = {0: cluster.machines[0].local_ids[:2], 1: np.zeros(0, np.int64), 2: np.zeros(0, np.int64)}
        cluster.all_to_all_points(batches)
        for mach in cluster.machines:
            assert mach.knows(batches[0])

    def test_step_with_no_messages_still_counts_round(self, rng):
        metric = EuclideanMetric(rng.normal(size=(10, 2)))
        cluster = MPCCluster(metric, 2, seed=0)
        cluster.step()
        assert cluster.stats.rounds == 1
        assert cluster.stats.total_words == 0

    def test_central_knows_helper(self, rng):
        metric = EuclideanMetric(rng.normal(size=(20, 2)))
        cluster = MPCCluster(metric, 2, seed=0)
        assert cluster.central_knows(cluster.central.local_ids)
        other = cluster.machines[1].local_ids
        assert not cluster.central_knows(other)
