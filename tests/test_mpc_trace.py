"""Tests for the per-message queries of a recorded run log."""

import numpy as np
import pytest

from repro.core import mpc_k_bounded_mis
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster
from repro.mpc.message import PointBatch
from repro.obs import Recorder


@pytest.fixture
def metric(rng):
    return EuclideanMetric(rng.normal(size=(100, 2)))


def _traced(metric, m, seed=0):
    cluster = MPCCluster(metric, m, seed=seed)
    rec = cluster.obs.add(Recorder())
    return cluster, rec


def _total_words(rec):
    return sum(e.words for e in rec.log.messages)


class TestTracing:
    def test_records_manual_messages(self, metric):
        cluster, rec = _traced(metric, 3)
        cluster.send(0, 1, 5.0, tag="hello")
        cluster.send(1, 2, np.zeros(4), tag="data")
        cluster.step()
        assert len(rec.log.messages) == 2
        tags = {e.tag for e in rec.log.messages}
        assert tags == {"hello", "data"}
        assert _total_words(rec) == 5

    def test_words_match_cluster_stats(self, metric):
        cluster, rec = _traced(metric, 4)
        mpc_k_bounded_mis(cluster, 0.6, 8)
        assert _total_words(rec) == cluster.stats.total_words

    def test_words_by_tag_covers_algorithm_phases(self, metric):
        cluster, rec = _traced(metric, 4)
        mpc_k_bounded_mis(cluster, 0.6, 8)
        by_tag = rec.log.words_by_tag()
        assert "degree/sample" in by_tag
        # descending order
        vals = list(by_tag.values())
        assert vals == sorted(vals, reverse=True)

    def test_words_by_round_sums_to_total(self, metric):
        cluster, rec = _traced(metric, 3)
        mpc_k_bounded_mis(cluster, 0.6, 5)
        assert sum(rec.log.words_by_round().values()) == _total_words(rec)

    def test_messages_between(self, metric):
        cluster, rec = _traced(metric, 3)
        cluster.send(2, 0, 1.0, tag="a")
        cluster.send(0, 2, 2.0, tag="b")
        cluster.step()
        assert len(rec.log.messages_between(2, 0)) == 1
        assert rec.log.messages_between(2, 0)[0].tag == "a"

    def test_heaviest_events(self, metric):
        cluster, rec = _traced(metric, 3)
        cluster.send(0, 1, np.zeros(100), tag="big")
        cluster.send(0, 1, 1.0, tag="small")
        cluster.step()
        top = rec.log.heaviest_messages(limit=1)
        assert top[0].tag == "big"

    def test_detach_restores(self, metric):
        cluster, rec = _traced(metric, 3)
        cluster.send(0, 1, 1.0)
        cluster.step()
        rec.detach()
        cluster.send(0, 1, 1.0)
        cluster.step()
        assert len(rec.log.messages) == 1  # nothing recorded after detach

    def test_pointbatch_words_accounted(self, metric):
        cluster, rec = _traced(metric, 3)
        ids = cluster.machines[0].local_ids[:3]
        cluster.send(0, 1, PointBatch(ids), tag="pts")
        cluster.step()
        assert rec.log.messages[0].words == 3 * (1 + metric.point_words())


class TestObserverLifecycle:
    def test_add_and_detach_via_hub(self, metric):
        cluster = MPCCluster(metric, 3, seed=0)
        rec = cluster.obs.add(Recorder())
        assert rec in cluster.obs
        cluster.send(0, 1, 2.0, tag="legacy")
        cluster.step()
        assert _total_words(rec) == 1
        rec.detach()
        assert rec not in cluster.obs
