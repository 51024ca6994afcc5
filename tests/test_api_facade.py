"""The solver facade must be a thin veneer: same seed ⇒ exactly the
results of the hand-assembled legacy entry points, on every backend."""

import numpy as np
import pytest

from repro import (
    EuclideanMetric,
    ManhattanMetric,
    MPCCluster,
    build_cluster,
    make_executor,
    make_metric,
    mpc_diversity,
    mpc_kcenter,
    mpc_kcenter_coreset,
    mpc_ksupplier,
    solve_diversity,
    solve_kcenter,
    solve_ksupplier,
)
from repro.mpc.executor import ProcessExecutor, SerialExecutor
from repro.mpc.partition import get_partitioner

M, SEED = 4, 11


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(5).normal(scale=3.0, size=(350, 3))


def _legacy_cluster(pts, seed=SEED, machines=M):
    """Assemble the cluster the way the CLI always has: seeded random
    partition, serial executor."""
    metric = EuclideanMetric(pts)
    parts = get_partitioner("random")(metric.n, machines, np.random.default_rng(seed))
    return MPCCluster(metric, machines, partition=parts, seed=seed)


class TestFacadeLegacyParity:
    def test_kcenter(self, pts):
        res = solve_kcenter(pts, 8, machines=M, seed=SEED, eps=0.15)
        legacy = mpc_kcenter(_legacy_cluster(pts), 8, epsilon=0.15)
        assert res.radius == legacy.radius
        assert np.array_equal(np.sort(res.centers), np.sort(legacy.centers))
        assert res.stats == legacy.stats

    def test_diversity(self, pts):
        res = solve_diversity(pts, 7, machines=M, seed=SEED, eps=0.15)
        legacy = mpc_diversity(_legacy_cluster(pts), 7, epsilon=0.15)
        assert res.diversity == legacy.diversity
        assert np.array_equal(np.sort(res.ids), np.sort(legacy.ids))

    def test_ksupplier(self, pts):
        cust, sup = np.arange(250), np.arange(250, 350)
        res = solve_ksupplier(
            pts, cust, sup, 5, machines=M, seed=SEED, eps=0.15
        )
        legacy = mpc_ksupplier(_legacy_cluster(pts), cust, sup, 5, epsilon=0.15)
        assert res.radius == legacy.radius
        assert np.array_equal(np.sort(res.suppliers), np.sort(legacy.suppliers))

    @pytest.mark.parametrize("backend", ["process"])
    def test_backends_match_serial(self, pts, backend):
        serial = solve_kcenter(pts, 8, machines=M, seed=SEED)
        other = solve_kcenter(pts, 8, machines=M, seed=SEED, backend=backend)
        assert serial.radius == other.radius
        assert np.array_equal(np.sort(serial.centers), np.sort(other.centers))
        assert serial.stats == other.stats

    def test_prebuilt_cluster_path(self, pts):
        cluster = build_cluster(pts, machines=M, seed=SEED)
        res = solve_kcenter(k=8, cluster=cluster)
        assert res.radius == solve_kcenter(pts, 8, machines=M, seed=SEED).radius

    def test_cluster_and_points_is_an_error(self, pts):
        cluster = build_cluster(pts, machines=M, seed=SEED)
        with pytest.raises(ValueError, match="cluster"):
            solve_kcenter(pts, 8, cluster=cluster)


class TestAssemblyHelpers:
    def test_make_metric_names(self, pts):
        assert isinstance(make_metric(pts, "euclidean"), EuclideanMetric)
        assert isinstance(make_metric(pts, "manhattan"), ManhattanMetric)
        assert isinstance(make_metric(pts, "L1"), ManhattanMetric)  # case-folded

    def test_make_metric_instance_passthrough(self, pts):
        metric = EuclideanMetric(pts)
        assert make_metric(None, metric) is metric
        with pytest.raises(ValueError, match="not both"):
            make_metric(pts, metric)

    def test_make_metric_rejections(self, pts):
        with pytest.raises(ValueError, match="unknown metric"):
            make_metric(pts, "no-such")
        with pytest.raises(ValueError, match="needs a points array"):
            make_metric(None, "euclidean")

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            make_executor("thread")
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_build_cluster_defaults(self, pts):
        cluster = build_cluster(pts)
        assert cluster.m == 8  # DEFAULT_MACHINES
        tiny = build_cluster(pts[:3])
        assert tiny.m == 3  # capped at n

    def test_metric_name_changes_solution_space(self, pts):
        r2 = solve_kcenter(pts, 8, machines=M, seed=SEED).radius
        r1 = solve_kcenter(pts, 8, metric="manhattan", machines=M, seed=SEED).radius
        assert r1 != r2  # different geometry actually reached the solver


class TestCoresetResult:
    def test_fields(self, pts):
        cluster = build_cluster(pts, machines=M, seed=SEED)
        result = mpc_kcenter_coreset(cluster, 6)
        assert result.kind == "kcenter"
        assert result.k == 6
        assert result.size == 6
        assert result.rounds > 0
        assert result.to_dict()["value"] == result.value

    def test_diversity_kind(self, pts):
        from repro import mpc_diversity_coreset

        cluster = build_cluster(pts, machines=M, seed=SEED)
        result = mpc_diversity_coreset(cluster, 6)
        assert result.kind == "diversity"
        assert result.ids.size == 6 and result.value > 0
