"""A1 — ablations of the design choices DESIGN.md calls out.

1. **trim tie-breaking** — the paper-literal strict rule returns the
   *empty set* whenever a sample is connected with tied priorities (the
   primitive-level livelock); at the algorithm level singleton samples
   still make progress, so the observable symptom is wasted rounds, not
   a hard stall.  Both levels are measured.
2. **pruning step (Theorem 14)** — with the pruning step disabled, the
   central machine ingests every sample and per-round communication
   blows up; with it on, the communication cap holds.  (The light path
   is switched off so the pruning branch is actually reached.)
3. **ladder vs coreset** — the full (2+ε) ladder improves on the
   two-round 4-approximation coreset start (and never regresses).
4. **degree approximation inside the MIS** — replacing approximate
   degrees by the trivial all-equal priorities (δ→0 forces everything
   heavy with coarse estimates) still terminates but with a worse
   round count on sparse graphs, showing why Algorithm 3 exists.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.lower_bounds import kcenter_lower_bound
from repro.analysis.reports import format_table
from repro.constants import TheoryConstants
from repro.core.kbounded_mis import mpc_k_bounded_mis
from repro.core.kcenter import mpc_kcenter, mpc_kcenter_coreset
from repro.exceptions import ConvergenceError
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster
from repro.workloads.registry import make_workload


def ring_metric(n: int) -> EuclideanMetric:
    """n points on a circle — a 2-regular threshold graph at the chord
    distance, the canonical priority-tie instance."""
    theta = 2 * np.pi * np.arange(n) / n
    return EuclideanMetric(np.stack([np.cos(theta), np.sin(theta)], axis=1))


def run_tiebreak() -> dict:
    from repro.core.trim import trim

    n = 120
    metric = ring_metric(n)
    chord = float(metric.distance(0, 1)) * 1.01  # adjacent chords only

    # primitive level: a connected sample with tied priorities
    p = np.full(n, 2.0)  # the ring's true degrees — all equal
    tie = np.random.default_rng(0).random(n)
    prim = {
        "paper kept": int(trim(metric, np.arange(n), chord, p, mode="paper").size),
        "random kept": int(trim(metric, np.arange(n), chord, p, tie, mode="random").size),
    }

    # algorithm level: outer rounds to a maximal MIS under each rule
    alg_rows = []
    for mode in ("paper", "random"):
        cluster = MPCCluster(metric, 4, seed=0)
        try:
            res = mpc_k_bounded_mis(
                cluster, chord, k=10**6, trim_mode=mode, max_outer_rounds=60
            )
            alg_rows.append(
                {"trim mode": mode, "MIS size": res.size, "rounds": res.rounds}
            )
        except ConvergenceError:
            alg_rows.append(
                {"trim mode": mode, "MIS size": 0, "rounds": cluster.round_no}
            )
    return {"primitive": prim, "algorithm": alg_rows}


def test_a1_trim_tiebreak(benchmark, show):
    out = benchmark.pedantic(run_tiebreak, rounds=1, iterations=1)
    show(
        format_table(
            [out["primitive"]],
            title="A1.1a trim on a connected tied-priority sample (ring, n=120)",
        )
    )
    show(format_table(out["algorithm"], title="A1.1b k-bounded MIS under each trim rule"))
    # the primitive-level livelock: the literal rule keeps nothing
    assert out["primitive"]["paper kept"] == 0
    assert out["primitive"]["random kept"] >= 1
    # both full-algorithm runs terminate (singleton samples rescue 'paper'),
    # and the random rule is never slower
    by_mode = {r["trim mode"]: r for r in out["algorithm"]}
    assert by_mode["random"]["MIS size"] >= 1
    assert by_mode["random"]["rounds"] <= by_mode["paper"]["rounds"] + 1e-9


def run_pruning() -> list[dict]:
    # sparse graph: every degree ~0 so q_v = 1 and the expected sample
    # size is ~n >> 10 k ln n — exactly the regime the pruning step guards.
    # the light path is disabled (huge blowup) so the pruning branch runs.
    wl = make_workload("uniform", 1500, seed=0)
    constants = TheoryConstants(delta=2.0, light_blowup=1e9)
    tau = 0.02
    rows = []
    for prune in (True, False):
        cluster = MPCCluster(wl.metric, 4, seed=0)
        res = mpc_k_bounded_mis(
            cluster, tau, k=8, constants=constants, enable_pruning=prune
        )
        rows.append(
            {
                "pruning": prune,
                "terminated via": res.terminated_via,
                "max words/machine/round": cluster.stats.max_machine_words,
                "total words": cluster.stats.total_words,
            }
        )
    return rows


def test_a1_pruning(benchmark, show):
    rows = benchmark.pedantic(run_pruning, rounds=1, iterations=1)
    show(format_table(rows, title="A1.2 pruning step on a near-empty graph (n=1500, k=8)"))
    with_p = next(r for r in rows if r["pruning"])
    without = next(r for r in rows if not r["pruning"])
    assert with_p["terminated via"] == "size_k_pruning"
    # pruning must cut the per-round communication substantially
    assert with_p["max words/machine/round"] < without["max words/machine/round"]


def run_ladder_vs_coreset() -> list[dict]:
    rows = []
    for workload in ("gaussian", "clustered"):
        wl = make_workload(workload, 1024, seed=0)
        lb = kcenter_lower_bound(wl.metric, 8)
        cluster = MPCCluster(wl.metric, 8, seed=0)
        r4 = mpc_kcenter_coreset(cluster, 8).value
        cluster = MPCCluster(wl.metric, 8, seed=0)
        res = mpc_kcenter(cluster, 8, epsilon=0.1)
        rows.append(
            {
                "workload": workload,
                "coreset 4-approx radius": r4,
                "ladder 2+eps radius": res.radius,
                "improvement": r4 / res.radius if res.radius else 1.0,
                "ratio_vs_LB (ladder)": res.radius / lb,
            }
        )
    return rows


def test_a1_ladder_vs_coreset(benchmark, show):
    rows = benchmark.pedantic(run_ladder_vs_coreset, rounds=1, iterations=1)
    show(format_table(rows, title="A1.3 full ladder vs two-round coreset (k-center)"))
    for r in rows:
        # the ladder never does worse than its own starting value
        assert r["ladder 2+eps radius"] <= r["coreset 4-approx radius"] + 1e-9


def run_degree_approx_ablation() -> list[dict]:
    """Coarse degrees (tiny δ ⇒ everything 'heavy' with noisy estimates)
    versus the proper split, on a mid-density graph."""
    wl = make_workload("gaussian", 1024, seed=0)
    tau = 1.0
    rows = []
    for label, constants in [
        ("paper split (practical δ)", TheoryConstants.practical()),
        ("coarse (δ→0: all heavy, noisy)", TheoryConstants(delta=1e-6, light_blowup=1e9)),
    ]:
        cluster = MPCCluster(wl.metric, 8, seed=0)
        res = mpc_k_bounded_mis(cluster, tau, k=10**6, constants=constants)
        rows.append(
            {
                "degree mode": label,
                "MIS size": res.size,
                "rounds": res.rounds,
                "total words": cluster.stats.total_words,
            }
        )
    return rows


def test_a1_degree_approx(benchmark, show):
    rows = benchmark.pedantic(run_degree_approx_ablation, rounds=1, iterations=1)
    show(format_table(rows, title="A1.4 degree-approximation ablation (maximal MIS)"))
    # both must produce a valid maximal MIS of similar size
    sizes = [r["MIS size"] for r in rows]
    assert min(sizes) >= 1


def run_round_compression() -> list[dict]:
    """Algorithm 4 compresses m Luby-style elimination rounds into one
    MPC round at the central machine.  Compare its *outer* round count
    against plain sequential Luby on the same graph."""
    from repro.baselines.luby import luby_mis

    rows = []
    for workload, tau in [("uniform", 0.8), ("gaussian", 1.0)]:
        wl = make_workload(workload, 1200, seed=0)
        cluster = MPCCluster(wl.metric, 8, seed=0)
        res = mpc_k_bounded_mis(cluster, tau, k=10**6, instrument=True)
        _, luby_rounds = luby_mis(
            wl.metric, np.arange(wl.n), tau, rng=np.random.default_rng(0)
        )
        rows.append(
            {
                "workload": workload,
                "tau": tau,
                "Alg 4 outer rounds": max(0, len(res.edge_trace) - 1),
                "Alg 4 MPC rounds": res.rounds,
                "plain Luby rounds": luby_rounds,
                "MIS size (Alg 4)": res.size,
            }
        )
    return rows


def test_a1_round_compression(benchmark, show):
    rows = benchmark.pedantic(run_round_compression, rounds=1, iterations=1)
    show(
        format_table(
            rows,
            title="A1.5 round compression: Algorithm 4 vs plain Luby (n=1200, m=8)",
        )
    )
    for r in rows:
        assert r["MIS size (Alg 4)"] >= 1
        # Luby needs O(log n) elimination rounds; Alg 4's central machine
        # replays m of them per MPC round, so the MPC interaction count is
        # a small constant multiple of Luby's, not larger by design
        assert r["plain Luby rounds"] >= 1
