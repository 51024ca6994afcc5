"""Tests for the cluster event-hook layer (`cluster.obs`)."""

import numpy as np
import pytest

import repro
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.obs import Observer, Recorder
from tests.test_accounting_pinned import PINNED, event_digest, integer_points, solve


@pytest.fixture
def metric(rng):
    return EuclideanMetric(rng.normal(size=(120, 2)))


class _EventLogger(Observer):
    """Records the hook call sequence as (kind, payload) tuples."""

    def __init__(self):
        self.calls = []

    def on_round_start(self, round_no):
        self.calls.append(("round_start", round_no))

    def on_message(self, event):
        self.calls.append(("message", event.tag))

    def on_round_end(self, record):
        self.calls.append(("round_end", record.round_no))


class TestHookOrdering:
    def test_round_start_messages_round_end(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        logger = cluster.obs.add(_EventLogger())
        cluster.send(0, 1, 1.0, tag="a")
        cluster.send(1, 2, 2.0, tag="b")
        cluster.step()
        kinds = [c[0] for c in logger.calls]
        assert kinds == ["round_start", "message", "message", "round_end"]
        assert logger.calls[0] == ("round_start", 1)
        assert logger.calls[-1] == ("round_end", 1)
        # delivery preserves outbox order
        assert [c[1] for c in logger.calls[1:3]] == ["a", "b"]

    def test_round_numbers_increment(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        logger = cluster.obs.add(_EventLogger())
        cluster.step()
        cluster.step()
        starts = [c[1] for c in logger.calls if c[0] == "round_start"]
        ends = [c[1] for c in logger.calls if c[0] == "round_end"]
        assert starts == [1, 2]
        assert ends == [1, 2]


class TestHubManagement:
    def test_add_is_idempotent(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        ob = _EventLogger()
        cluster.obs.add(ob)
        cluster.obs.add(ob)
        assert len(cluster.obs) == 1
        cluster.step()
        assert [c[0] for c in ob.calls] == ["round_start", "round_end"]

    def test_remove_stops_delivery(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        ob = cluster.obs.add(_EventLogger())
        cluster.step()
        cluster.obs.remove(ob)
        assert ob not in cluster.obs
        cluster.step()
        assert [c[1] for c in ob.calls if c[0] == "round_end"] == [1]

    def test_remove_unknown_is_noop(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        cluster.obs.remove(_EventLogger())  # must not raise
        assert len(cluster.obs) == 0

    def test_multiple_observers_all_notified(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        a = cluster.obs.add(_EventLogger())
        b = cluster.obs.add(_EventLogger())
        cluster.send(0, 1, np.zeros(3), tag="x")
        cluster.step()
        assert a.calls == b.calls

    def test_clear(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        cluster.obs.add(_EventLogger())
        cluster.obs.add(_EventLogger())
        cluster.obs.clear()
        assert len(cluster.obs) == 0


class TestLegacyEquivalence:
    def test_hooked_trace_matches_monkeypatched_totals(self):
        """A Recorder's message log must hold exactly the events one
        ``send()`` per (src, dst) pair gave before the collectives became
        array-native (the digest pinned in ``test_accounting_pinned``),
        and each event must match an envelope a caller reads back from
        ``step()``, with its words recomputed from the payload."""
        # run 1: the supported hook API
        rec = Recorder()
        ids, cluster1, _ = solve("kcenter", 500, 5, observer=rec)
        log = rec.log
        assert event_digest(log.messages) == PINNED[("kcenter", 500, 5)][1]
        assert sum(log.words_by_round().values()) == cluster1.stats.total_words

        # run 2: same seed, no observer; every inbox each step() returns
        # is read back
        cluster2 = repro.build_cluster(
            metric=CountingOracle(repro.EuclideanMetric(integer_points(500))),
            machines=5, seed=17)
        pw = cluster2.metric.point_words()
        original_step = cluster2.step
        delivered = []

        def reading_step():
            inboxes = original_step()
            rnd = cluster2.round_no
            delivered.extend((rnd, msg.src, msg.dst, msg.tag, msg.words(pw))
                             for dst in inboxes for msg in inboxes[dst])
            return inboxes

        cluster2.step = reading_step
        res2 = repro.solve_kcenter(cluster=cluster2, k=8, eps=0.2)

        assert np.array_equal(ids, res2.centers)
        hooked = [(e.round_no, e.src, e.dst, e.tag, e.words) for e in log.messages]
        assert sorted(hooked) == sorted(delivered)
        # a gather reaches the central machine from every other machine
        for src in range(1, 5):
            assert [e.tag for e in log.messages_between(src, 0)].count("kcenter/coreset") == 1
