"""The Euclidean threshold kernel decides ``d(i, j) <= tau`` exactly as the
dense path ``_pairwise_kernel(I, J) <= tau`` does, cell for cell.

``EuclideanMetric._within_kernel`` compares the squared expanded-norm
value with ``t2(tau)`` instead of taking square roots, so these tests pin
it to the dense reference at the places where the two could part: exact
distances and their neighbouring doubles as ``tau``, coincident points,
repeated and shared ids, tiny and huge coordinates, and every
``chunk_budget`` shape of ``count_within``.  The
:class:`~repro.metric.oracle.CountingOracle` ledger must not move either.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threshold_graph import ThresholdGraphView
from repro.core.trim import trim
from repro.metric.base import Metric
from repro.metric.euclidean import EuclideanMetric, _sq_threshold
from repro.metric.oracle import CountingOracle


def dense_within(metric, I, J, tau):
    """The reference: one distance block, compared with ``tau``."""
    if I.size == 0 or J.size == 0:
        return np.zeros((I.size, J.size), dtype=bool)
    return metric._pairwise_kernel(I, J) <= tau


def dense_count_within(metric, I, J, tau):
    """The reference count, over the chunks ``count_within`` uses."""
    out = np.zeros(I.size, dtype=np.int64)
    if I.size == 0 or J.size == 0:
        return out
    step = max(1, metric.chunk_budget // max(1, J.size))
    for lo in range(0, I.size, step):
        hi = min(I.size, lo + step)
        out[lo:hi] = (metric._pairwise_kernel(I[lo:hi], J) <= tau).sum(axis=1)
    return out


class DenseEuclidean(EuclideanMetric):
    """Euclidean with the default threshold hook: the dense path."""

    _within_kernel = Metric._within_kernel


def boundary_taus(metric, I, J):
    """Fixed thresholds plus every distance of the block and the doubles
    on either side of it."""
    taus = [0.0, -0.0, -1.0, math.inf, math.nan, 1e-300]
    if I.size and J.size:
        for d in np.unique(metric._pairwise_kernel(I, J)):
            d = float(d)
            taus += [d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf)]
    return taus


@st.composite
def blocks(draw):
    dim = draw(st.sampled_from([1, 2, 3, 8, 64]))
    n = draw(st.integers(1, 20))
    scale = draw(st.sampled_from([1e-12, 1.0, 1e12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, dim)) * scale
    if draw(st.booleans()):  # coincident points: distance 0 between distinct ids
        pts[rng.integers(0, n, size=n // 2 + 1)] = pts[0]
    ids = st.lists(st.integers(0, n - 1), max_size=9)
    I = np.asarray(draw(ids), dtype=np.int64)
    J = np.asarray(draw(ids), dtype=np.int64)
    if draw(st.booleans()):  # ids present in both I and J
        J = np.concatenate([J, I[: draw(st.integers(0, I.size))]])
    budget = draw(st.sampled_from([1, 7, Metric.chunk_budget]))
    return pts, I, J, budget


@settings(max_examples=150, deadline=None)
@given(block=blocks())
def test_within_and_count_match_dense_path(block):
    pts, I, J, budget = block
    metric = EuclideanMetric(pts)
    metric.chunk_budget = budget
    for tau in boundary_taus(metric, I, J):
        expect = dense_within(metric, I, J, tau)
        got = metric.within(I, J, tau)
        assert got.dtype == bool and got.shape == (I.size, J.size)
        assert np.array_equal(got, expect), tau
        assert np.array_equal(
            metric.count_within(I, J, tau), dense_count_within(metric, I, J, tau)
        ), tau


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 6), (6, 1), (1, 1)])
@pytest.mark.parametrize("budget", [1, 7, Metric.chunk_budget])
def test_degenerate_block_shapes(shape, budget):
    rng = np.random.default_rng(sum(shape) + budget)
    metric = EuclideanMetric(rng.normal(size=(8, 3)))
    metric.chunk_budget = budget
    I = rng.integers(0, 8, size=shape[0])
    J = rng.integers(0, 8, size=shape[1])
    for tau in boundary_taus(metric, I, J):
        assert np.array_equal(metric.within(I, J, tau), dense_within(metric, I, J, tau))
        assert np.array_equal(
            metric.count_within(I, J, tau), dense_count_within(metric, I, J, tau)
        )


def test_repeated_and_shared_ids_with_coincident_points():
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [3.0, -1.0], [0.1, 0.2]])
    metric = EuclideanMetric(pts)
    I = np.array([0, 0, 1, 2, 3], dtype=np.int64)
    J = np.array([3, 0, 0, 2, 1, 2], dtype=np.int64)
    for tau in boundary_taus(metric, I, J):
        assert np.array_equal(metric.within(I, J, tau), dense_within(metric, I, J, tau))
    # same ids are distance 0, so within tau = 0 even where the expanded
    # form leaves a residue between coincident distinct ids
    assert metric.within(I, J, 0.0)[I[:, None] == J[None, :]].all()


@settings(max_examples=300, deadline=None)
@given(
    tau=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    | st.floats(min_value=0.0, max_value=1e-150, allow_subnormal=True)
)
def test_sq_threshold_brackets_tau(tau):
    t2 = _sq_threshold(tau)
    assert math.sqrt(t2) <= tau < math.sqrt(math.nextafter(t2, math.inf))


def test_sq_threshold_at_infinity():
    assert _sq_threshold(math.inf) == math.inf


def test_ledger_matches_dense_path_over_mixed_calls():
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.normal(size=(40, 2)), np.zeros((3, 2))])
    fast = CountingOracle(EuclideanMetric(pts))
    dense = CountingOracle(DenseEuclidean(pts))
    taus = [0.0, 0.5, float(fast.inner._pairwise_kernel(np.array([1]), np.array([2]))[0, 0])]
    ids = np.arange(43)
    p = rng.random(43)
    tie = rng.random(43)
    for budget in (1, 7, Metric.chunk_budget):
        for oracle in (fast, dense):
            oracle.chunk_budget = budget
        for tau in taus:
            I = rng.integers(0, 43, size=11)
            J = rng.integers(0, 43, size=17)
            results = []
            for oracle in (fast, dense):
                view = ThresholdGraphView(oracle, J, tau)
                results.append((
                    oracle.within(I, J, tau),
                    oracle.count_within(I, J, tau),
                    oracle.count_within(ids, ids, tau),
                    oracle.pairwise(I, J),
                    oracle.dist_to_set(I, J),
                    trim(oracle, ids, tau, p, tie),
                    view.degrees(I),
                    view.neighbors(int(J[0])),
                    view.adjacency(I, J),
                    oracle.within([], J, tau),
                ))
            for got, expect in zip(*results):
                assert np.array_equal(got, expect)
    assert fast.calls == dense.calls
    assert fast.evaluations == dense.evaluations
    assert fast.calls > 0
