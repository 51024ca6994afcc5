"""Tests for the Machine abstraction (known-point discipline)."""

import numpy as np
import pytest

from repro.exceptions import UnknownPointError
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.machine import Machine


@pytest.fixture
def metric(rng):
    return EuclideanMetric(rng.normal(size=(20, 2)))


@pytest.fixture
def machine(metric):
    return Machine(0, metric, np.arange(10), np.random.default_rng(0), strict=True)


class TestKnownPoints:
    def test_initially_knows_partition(self, machine):
        assert machine.knows(np.arange(10))
        assert not machine.knows([15])
        assert machine.known_count == 10

    def test_learn_extends(self, machine):
        machine.learn([15, 16])
        assert machine.knows([15, 16])
        assert machine.known_count == 12

    def test_known_words(self, machine, metric):
        assert machine.known_words() == 10 * metric.point_words()

    def test_require_known_raises(self, machine):
        with pytest.raises(UnknownPointError) as e:
            machine.require_known([3, 15])
        assert e.value.point_id == 15

    def test_negative_id_rejected(self, machine):
        with pytest.raises(UnknownPointError):
            machine.require_known([-1])

    def test_non_strict_allows_anything(self, metric):
        m = Machine(1, metric, np.arange(5), np.random.default_rng(0), strict=False)
        m.require_known([19])  # no raise
        m.pairwise([19], [18])  # no raise


class TestMetricHelpers:
    def test_pairwise_checks_both_sides(self, machine):
        with pytest.raises(UnknownPointError):
            machine.pairwise([0], [15])
        with pytest.raises(UnknownPointError):
            machine.pairwise([15], [0])

    def test_pairwise_values(self, machine, metric):
        assert np.allclose(
            machine.pairwise([0, 1], [2]), metric.pairwise([0, 1], [2])
        )

    def test_dist_to_set(self, machine, metric):
        assert np.allclose(
            machine.dist_to_set([0, 1], [5]), metric.dist_to_set([0, 1], [5])
        )

    def test_radius_and_diversity(self, machine, metric):
        ids = np.arange(10)
        assert machine.radius(ids, [0]) == pytest.approx(metric.radius(ids, [0]))
        assert machine.diversity(ids) == pytest.approx(metric.diversity(ids))

    def test_count_within_and_within(self, machine, metric):
        ids = np.arange(10)
        assert np.array_equal(
            machine.count_within(ids, ids, 1.0), metric.count_within(ids, ids, 1.0)
        )
        assert np.array_equal(
            machine.within(ids, ids, 1.0), metric.within(ids, ids, 1.0)
        )

    def test_empty_ids_ok(self, machine):
        machine.require_known([])
        assert machine.knows([])


class TestRngIsolation:
    def test_private_streams_differ(self, metric):
        a = Machine(0, metric, np.arange(5), np.random.default_rng(1))
        b = Machine(1, metric, np.arange(5), np.random.default_rng(2))
        assert a.rng.random() != b.rng.random()
