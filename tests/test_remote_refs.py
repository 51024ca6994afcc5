"""Remote run frames reference the batch's own dataset instead of carrying it.

The frames a :class:`~repro.mpc.remote.RemoteExecutor` sends are
recorded by wrapping :func:`repro.mpc.dispatch.dumps_task`.  What the
base metric of a batch holds — the point matrix and, for the Euclidean
metric, its squared norms — travels once per agent with
``put_dataset``; a frame that still carried those bytes would embed
them whole, so a plain substring search finds them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve_kcenter
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc import dispatch
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import SerialExecutor
from repro.mpc.remote import RemoteExecutor, WorkerAgent


def _points(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(scale=3.0, size=(1500, 2))


@pytest.fixture
def agents():
    pool = [WorkerAgent("127.0.0.1", 0, slots=1) for _ in range(2)]
    addrs = [agent.start() for agent in pool]
    try:
        yield addrs
    finally:
        for agent in pool:
            agent.stop()


@pytest.fixture
def frames(monkeypatch):
    """Every run frame encoded while the test runs."""
    blobs: list = []
    encode = dispatch.dumps_task

    def recording(payload, refs):
        blob = encode(payload, refs)
        blobs.append(blob)
        return blob

    monkeypatch.setattr(dispatch, "dumps_task", recording)
    return blobs


def _serial(points):
    oracle = CountingOracle(EuclideanMetric(points))
    cluster = MPCCluster(oracle, 4, seed=3, executor=SerialExecutor())
    return solve_kcenter(k=4, eps=0.3, cluster=cluster), oracle


def _assert_same(result, oracle, points):
    serial, serial_oracle = _serial(points)
    assert result.radius == serial.radius
    assert np.array_equal(result.centers, serial.centers)
    assert (oracle.calls, oracle.evaluations) == (serial_oracle.calls,
                                                  serial_oracle.evaluations)


def test_frames_reference_their_own_cluster_with_two_bound(agents, frames):
    """One executor bound to two clusters: the first cluster's batches
    reference its own point matrix, not the last-bound cluster's."""
    first_points, second_points = _points(1), _points(2)
    first = EuclideanMetric(first_points)
    executor = RemoteExecutor(agents)
    oracle = CountingOracle(first)
    cluster = MPCCluster(oracle, 4, seed=3, executor=executor)
    MPCCluster(CountingOracle(EuclideanMetric(second_points)), 4, seed=3,
               executor=executor)  # bound last

    result = solve_kcenter(k=4, eps=0.3, cluster=cluster)

    assert frames
    matrix = first.points.data.tobytes()
    assert not any(matrix in blob for blob in frames)
    _assert_same(result, oracle, first_points)
    assert executor.recovery_stats()["workers_lost"] == 0


def test_frames_do_not_carry_the_squared_norms(agents, frames):
    """The Euclidean squared norms travel once per agent with the points,
    not by value in every frame."""
    points = _points(3)
    metric = EuclideanMetric(points)
    executor = RemoteExecutor(agents)
    oracle = CountingOracle(metric)
    cluster = MPCCluster(oracle, 4, seed=3, executor=executor)

    result = solve_kcenter(k=4, eps=0.3, cluster=cluster)

    assert frames
    norms = metric._sqnorms.tobytes()
    assert not any(norms in blob for blob in frames)
    _assert_same(result, oracle, points)
    # one put_dataset per agent carries both arrays
    assert executor.datasets_shipped == 2
