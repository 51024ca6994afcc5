"""Pinned MPC accounting and message events.

Seeded serial k-center, diversity and k-supplier solves, and two
k-bounded MIS runs whose constants force the pruning step and the
light-vertex path, on points with small integer coordinates: every
squared distance is an exact float, so the runs are bit-identical on
any BLAS.  Two digests are pinned per
case:

* the accounting digest — the number of rounds, each round's ``sent``
  and ``received`` arrays and message count, ``peak_known_points``, the
  result ids and the CountingOracle ledger;
* the event digest — the message events ``(round_no, src, dst, tag,
  words)`` a :class:`~repro.obs.record.Recorder` logs, in delivery order.

The values were recorded when every collective still queued one
``Message`` per (src, dst) pair, before the simulator moved to
array-native collectives, so they check that the rework changed no
figure the model reports and no event an observer sees.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.constants import TheoryConstants
from repro.core.kbounded_mis import mpc_k_bounded_mis
from repro.metric.oracle import CountingOracle
from repro.obs import Recorder

CASES = [(500, 5), (2000, 16)]
SOLVERS = ["kcenter", "diversity", "ksupplier", "mis-prune", "mis-light"]

#: (tau, k, constants) of the MIS runs: a tiny pruning trigger takes the
#: pruning step (``mis/prune-exchange``), a tiny light-path trigger the
#: light-vertex path (``degree/light-ship``)
MIS_RUNS = {
    "mis-prune": (100.0, 20, TheoryConstants(delta=2.0, pruning_factor=0.02)),
    "mis-light": (30.0, 40, TheoryConstants(delta=2.0, pruning_factor=0.05,
                                            light_blowup=0.01)),
}

#: (solver, n, m) -> (accounting digest, event digest)
PINNED = {
    ("kcenter", 500, 5): (
        "bddcd170f70949116accc04249bc7fbbc7f9f0ed0b332c90306a2c401ae88f83",
        "c1544c70d704213933158e4a967ca7acdc33cd48cb7cac5dc5cc840e9003a252"),
    ("diversity", 500, 5): (
        "35fe5a2d331d08a554fb6db94d4859882da130deef56e26f56157b5a6319ace1",
        "b643d35996dc5dd1eef02d8b3c8b835514e6f9916331346f84618942535175b7"),
    ("ksupplier", 500, 5): (
        "ca7f7810063456be0cc88495e2636c9fcb4252877d7765617b72d72dbb77bae5",
        "4e357b344f0f9eed9a02100795f5d102cb0c63c04b848667715909bde0ba59b9"),
    ("mis-prune", 500, 5): (
        "b58f4628cc249d6b4d689f54574e419d662b230cabf987a6f72a11ac6653dcee",
        "5aee5df1e6781eacb594d8c6e6302c73cf5326469eb508e4a52c355469e9aa23"),
    ("mis-light", 500, 5): (
        "bddb302c5a371490a598e9162864cbc37a58f24d80bebbce87df15a1fc5a557d",
        "d9cbe64d4eb1d17d51a6373e880497e7681d2cc30b43b7841c8e8cfd302e9a77"),
    ("kcenter", 2000, 16): (
        "7c6f9b85a3bd17a6ec8ae07b934b3635ff89598e6a5e8b83c41efaf36952b581",
        "47bba5542d6b9e0493fa05bb4443bf0836c91eba32b998c49d27ec07b3511372"),
    ("diversity", 2000, 16): (
        "ae5ed486ff9c3804f3291c0dade4f7a11af25fa11b2ecf5196f4e8c59c6dbf72",
        "8ee59e67e968b1ec1b6b532bb4988a7f48cecb353a3d4e4f1def0b8015acc218"),
    ("ksupplier", 2000, 16): (
        "804f9a1ba1ae61b3cf9778d4a8d932e52d46345c1355378cc545237c054fd000",
        "665d6948c42a29f8c3981698c15f6025bc986e9fc142d8482e927bb60b6c39cf"),
    ("mis-prune", 2000, 16): (
        "706d5f0dc8f71673da968324177bf3ad54270d07780148037205f4f32a039642",
        "5438b8b41f193072098c77caf1bd185f84ab2ba4c59b51944784dc8b89716a8e"),
    ("mis-light", 2000, 16): (
        "e0b35962fee49aff91629986881468b9c9a3e7eabb550518f6878fe67f31116e",
        "fdd4e2b768eb909a1a7c2c1118a82cef1f2e6818d02ef0b74cbbdce8e5494c98"),
}


def integer_points(n: int, seed: int = 5) -> np.ndarray:
    """``n`` 2-D points with integer coordinates in ``[0, 1000)``."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1000, size=(n, 2)).astype(np.float64)


def solve(solver: str, n: int, m: int, observer=None):
    """One seeded serial solve; returns ``(result ids, cluster, oracle)``."""
    oracle = CountingOracle(repro.EuclideanMetric(integer_points(n)))
    cluster = repro.build_cluster(metric=oracle, machines=m, seed=17)
    if observer is not None:
        cluster.obs.add(observer)
    if solver == "kcenter":
        ids = repro.solve_kcenter(cluster=cluster, k=8, eps=0.2).centers
    elif solver in MIS_RUNS:
        tau, k, constants = MIS_RUNS[solver]
        ids = mpc_k_bounded_mis(cluster, tau, k, constants=constants).ids
    elif solver == "diversity":
        ids = repro.solve_diversity(cluster=cluster, k=8, eps=0.2).ids
    else:
        ids = repro.solve_ksupplier(
            cluster=cluster, customers=np.arange(0, n, 2),
            suppliers=np.arange(1, n, 2), k=8, eps=0.2,
        ).suppliers
    return np.asarray(ids, dtype=np.int64), cluster, oracle


def accounting_digest(ids, cluster, oracle) -> str:
    h = hashlib.sha256()
    stats = cluster.stats
    h.update(repr(("rounds", stats.rounds, stats.peak_known_points)).encode())
    for r in stats.rounds_log:
        h.update(repr((r.round_no, r.sent.tolist(), r.received.tolist(),
                       r.messages)).encode())
    h.update(repr(("ids", ids.tolist())).encode())
    h.update(repr(("ledger", oracle.calls, oracle.evaluations)).encode())
    return h.hexdigest()


def event_digest(events) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(repr((e.round_no, e.src, e.dst, e.tag, e.words)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n,m", CASES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_accounting_and_events_match_pinned(solver, n, m):
    plain = accounting_digest(*solve(solver, n, m))
    rec = Recorder()
    ids, cluster, oracle = solve(solver, n, m, observer=rec)
    messages = rec.log.messages
    # an attached message observer changes nothing the model reports
    assert accounting_digest(ids, cluster, oracle) == plain
    assert sum(e.words for e in messages) == cluster.stats.total_words
    assert len(messages) == cluster.stats.total_messages
    assert (plain, event_digest(messages)) == PINNED[(solver, n, m)]
