"""Tests for the MPC cluster: rounds, delivery, accounting, limits."""

import numpy as np
import pytest

from repro.exceptions import (
    CommunicationLimitExceeded,
    MemoryLimitExceeded,
    UnknownPointError,
)
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster
from repro.mpc.limits import Limits
from repro.mpc.message import Ids, PointBatch


@pytest.fixture
def metric(rng):
    return EuclideanMetric(rng.normal(size=(40, 2)))


@pytest.fixture
def cluster(metric):
    return MPCCluster(metric, num_machines=4, seed=0)


class TestConstruction:
    def test_machine_count(self, cluster):
        assert cluster.m == 4 and len(cluster.machines) == 4

    def test_partition_covers_input(self, cluster):
        all_ids = np.concatenate([mach.local_ids for mach in cluster.machines])
        assert np.array_equal(np.sort(all_ids), np.arange(40))

    def test_custom_partition(self, metric):
        parts = [np.arange(0, 20), np.arange(20, 40)]
        c = MPCCluster(metric, 2, partition=parts)
        assert np.array_equal(c.machines[0].local_ids, parts[0])

    def test_partition_size_mismatch(self, metric):
        with pytest.raises(ValueError, match="partition size"):
            MPCCluster(metric, 3, partition=[np.arange(40)])

    def test_zero_machines_rejected(self, metric):
        with pytest.raises(ValueError):
            MPCCluster(metric, 0)

    def test_central_is_machine_zero(self, cluster):
        assert cluster.central is cluster.machines[0]


class TestMessaging:
    def test_send_and_step_delivers(self, cluster):
        cluster.send(1, 2, 42.0, tag="x")
        inboxes = cluster.step()
        assert len(inboxes[2]) == 1
        assert inboxes[2][0].payload == 42.0
        assert inboxes[2][0].tag == "x"
        assert inboxes[0] == [] and inboxes[1] == []

    def test_step_advances_round(self, cluster):
        assert cluster.round_no == 0
        cluster.step()
        assert cluster.round_no == 1

    def test_messages_not_delivered_before_step(self, cluster):
        ids = cluster.machines[0].local_ids[:1]
        cluster.send(0, 1, PointBatch(ids))
        assert not cluster.machines[1].knows(ids)  # still in flight
        inboxes = cluster.step()
        assert len(inboxes[1]) == 1
        assert cluster.machines[1].knows(ids)

    def test_pointbatch_teaches_receiver(self, cluster):
        src_ids = cluster.machines[1].local_ids[:3]
        assert not cluster.machines[2].knows(src_ids)
        cluster.send(1, 2, PointBatch(src_ids))
        cluster.step()
        assert cluster.machines[2].knows(src_ids)

    def test_nested_pointbatch_teaches_receiver(self, cluster):
        src_ids = cluster.machines[1].local_ids[:2]
        cluster.send(1, 2, {"data": (PointBatch(src_ids), 1.0)})
        cluster.step()
        assert cluster.machines[2].knows(src_ids)

    def test_strict_sender_must_know_points(self, cluster):
        foreign = cluster.machines[2].local_ids[:1]
        with pytest.raises(UnknownPointError):
            cluster.send(1, 0, PointBatch(foreign))

    def test_ids_payload_not_checked(self, cluster):
        foreign = cluster.machines[2].local_ids[:1]
        cluster.send(1, 0, Ids(foreign))  # bare references are fine
        cluster.step()

    def test_machine_id_validation(self, cluster):
        with pytest.raises(ValueError):
            cluster.send(0, 9, 1.0)

    def test_broadcast_reaches_everyone_else(self, cluster):
        cluster.broadcast(1, 3.0)
        inboxes = cluster.step()
        for i in range(4):
            assert len(inboxes[i]) == (0 if i == 1 else 1)

    def test_gather_to_central_sorted_by_src(self, cluster):
        inbox = cluster.gather_to_central({i: float(i) for i in range(4)})
        assert [msg.src for msg in inbox] == [0, 1, 2, 3]

    def test_all_to_all_points(self, cluster):
        batches = {i: cluster.machines[i].local_ids[:2] for i in range(4)}
        cluster.all_to_all_points(batches)
        union = np.concatenate(list(batches.values()))
        for mach in cluster.machines:
            assert mach.knows(union)


class TestScatter:
    def test_slices_charge_and_teach_like_one_send_each(self, cluster, metric):
        ids = cluster.machines[1].local_ids[:5]
        cluster.scatter(1, [0, 2, 3], PointBatch(ids, {"c": np.arange(5.0)}), [2, 0, 3], tag="s")
        inboxes = cluster.step()
        r = cluster.stats.rounds_log[-1]
        per_point = 1 + metric.point_words() + 1
        assert r.messages == 3
        assert r.sent[1] == 5 * per_point
        assert list(r.received) == [2 * per_point, 0, 0, 3 * per_point]
        assert cluster.machines[0].knows(ids[:2]) and not cluster.machines[0].knows(ids[2:])
        assert cluster.machines[3].knows(ids[2:]) and not cluster.machines[3].knows(ids[:2])
        assert not cluster.machines[2].knows(ids)
        (msg,) = inboxes[3]
        assert (msg.src, msg.dst, msg.tag) == (1, 3, "s")
        assert np.array_equal(msg.payload.ids, ids[2:])
        assert np.array_equal(msg.payload.columns["c"], [2.0, 3.0, 4.0])
        assert len(inboxes[2]) == 1 and inboxes[2][0].payload.ids.size == 0

    def test_array_slices_are_plain_words(self, cluster):
        cluster.scatter(2, [0, 1], np.arange(7.0), [4, 3])
        inboxes = cluster.step()
        r = cluster.stats.rounds_log[-1]
        assert r.sent[2] == 7 and r.received[0] == 4 and r.received[1] == 3
        assert np.array_equal(inboxes[1][0].payload, [4.0, 5.0, 6.0])

    def test_several_slices_to_one_receiver(self, cluster):
        ids = cluster.machines[2].local_ids[:4]
        cluster.scatter(2, [0, 0], PointBatch(ids), [1, 3])
        inboxes = cluster.step()
        assert cluster.stats.rounds_log[-1].messages == 2
        assert [m.payload.ids.size for m in inboxes[0]] == [1, 3]
        assert cluster.central.knows(ids)

    def test_strict_sender_must_know_points(self, cluster):
        foreign = cluster.machines[2].local_ids[:2]
        with pytest.raises(UnknownPointError):
            cluster.scatter(1, [0], PointBatch(foreign), [2])

    def test_bad_arguments(self, cluster):
        ids = cluster.machines[1].local_ids[:2]
        with pytest.raises(ValueError):
            cluster.scatter(1, [0, 9], PointBatch(ids), [1, 1])
        with pytest.raises(ValueError):
            cluster.scatter(1, [0], PointBatch(ids), [1, 1])
        with pytest.raises(ValueError):
            cluster.scatter(1, [0, 2], PointBatch(ids), [1, 2])

    def test_events_match_one_send_per_slice(self, metric):
        from repro.obs import Recorder

        def run(scattered):
            c = MPCCluster(metric, num_machines=4, seed=0)
            rec = c.obs.add(Recorder())
            ids = c.machines[1].local_ids[:5]
            if scattered:
                c.scatter(1, [0, 2, 3], PointBatch(ids), [2, 0, 3], tag="t")
            else:
                for dst, part in zip([0, 2, 3], (ids[:2], ids[2:2], ids[2:])):
                    c.send(1, dst, PointBatch(part), tag="t")
            c.step()
            stats = c.stats.rounds_log[-1]
            return ([(e.round_no, e.src, e.dst, e.tag, e.words) for e in rec.log.messages],
                    stats.sent.tolist(), stats.received.tolist(), stats.messages,
                    c.stats.peak_known_points)

        assert run(True) == run(False)


class TestInboxes:
    def test_unread_inboxes_stay_unbuilt_until_read(self, cluster):
        cluster.broadcast(0, 1.0, tag="b")
        inboxes = cluster.step()
        assert len(inboxes) == 4 and list(inboxes) == [0, 1, 2, 3]
        assert inboxes[0] == []
        assert [m.src for m in inboxes[2]] == [0]
        with pytest.raises(KeyError):
            inboxes[4]

    def test_known_masks_are_rows_of_one_array(self, cluster):
        ids = cluster.machines[1].local_ids[:3]
        cluster.broadcast(1, PointBatch(ids))
        cluster.step()
        assert all(mach.knows(ids) for mach in cluster.machines)
        assert cluster.stats.peak_known_points == max(m.known_count for m in cluster.machines)


class TestAccounting:
    def test_scalar_word_charged_both_sides(self, cluster):
        cluster.send(1, 2, 5.0)
        cluster.step()
        r = cluster.stats.rounds_log[-1]
        assert r.sent[1] == 1 and r.received[2] == 1
        assert r.sent[0] == 0

    def test_pointbatch_words(self, cluster, metric):
        ids = cluster.machines[1].local_ids[:3]
        cluster.send(1, 0, PointBatch(ids))
        cluster.step()
        r = cluster.stats.rounds_log[-1]
        assert r.sent[1] == 3 * (1 + metric.point_words())

    def test_totals_accumulate(self, cluster):
        cluster.send(0, 1, 1.0)
        cluster.step()
        cluster.send(0, 1, np.zeros(5))
        cluster.step()
        assert cluster.stats.total_words == 6
        assert cluster.stats.rounds == 2

    def test_max_machine_total(self, cluster):
        cluster.send(0, 1, np.zeros(10))
        cluster.step()
        assert cluster.stats.max_machine_total == 10
        per = cluster.stats.per_machine_totals()
        assert per[0] == 10 and per[1] == 10 and per[2] == 0

    def test_summary_keys(self, cluster):
        cluster.step()
        s = cluster.stats.summary()
        for key in (
            "machines",
            "rounds",
            "total_words",
            "max_machine_words_per_round",
            "max_machine_total_words",
            "peak_known_points",
        ):
            assert key in s

    def test_self_message_counts_once_per_side(self, cluster):
        cluster.send(1, 1, 2.0)
        cluster.step()
        stats = cluster.stats.rounds_log[-1]
        assert stats.sent[1] == 1 and stats.received[1] == 1


class TestLimits:
    def test_comm_limit_trips(self, metric):
        c = MPCCluster(metric, 2, seed=0, limits=Limits(comm_words_per_round=3))
        c.send(0, 1, np.zeros(10))
        with pytest.raises(CommunicationLimitExceeded):
            c.step()

    def test_comm_limit_allows_under(self, metric):
        c = MPCCluster(metric, 2, seed=0, limits=Limits(comm_words_per_round=100))
        c.send(0, 1, np.zeros(10))
        c.step()

    def test_memory_limit_trips_on_learn(self, metric):
        # partitions hold ~20 points => 40 words; cap at 45 and ship 5 points
        c = MPCCluster(metric, 2, seed=0, limits=Limits(memory_words=45))
        ids = c.machines[0].local_ids[:5]
        c.send(0, 1, PointBatch(ids))
        with pytest.raises(MemoryLimitExceeded):
            c.step()

    def test_memory_limit_at_construction(self, metric):
        with pytest.raises(MemoryLimitExceeded):
            MPCCluster(metric, 2, seed=0, limits=Limits(memory_words=1))

    def test_theory_limits_factory(self):
        lim = Limits.theory(n=1000, m=8, k=10, dim=2)
        assert lim.memory_words > 0 and lim.comm_words_per_round > 0


class TestDeterminism:
    def test_same_seed_same_partition(self, metric):
        a = MPCCluster(metric, 4, seed=9)
        b = MPCCluster(metric, 4, seed=9)
        for x, y in zip(a.machines, b.machines):
            assert np.array_equal(x.local_ids, y.local_ids)

    def test_same_seed_same_machine_rng(self, metric):
        a = MPCCluster(metric, 4, seed=9)
        b = MPCCluster(metric, 4, seed=9)
        assert a.machines[2].rng.random() == b.machines[2].rng.random()

    def test_different_seed_differs(self, metric):
        a = MPCCluster(metric, 4, seed=1)
        b = MPCCluster(metric, 4, seed=2)
        assert not all(
            np.array_equal(x.local_ids, y.local_ids)
            for x, y in zip(a.machines, b.machines)
        )
