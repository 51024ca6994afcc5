"""Anatomy of a run: watch the paper's machinery work, step by step.

Walks one MPC k-center execution with full instrumentation:

1. the per-machine GMM coresets and the 4-approximation r;
2. the threshold ladder the binary search probes;
3. inside one k-bounded MIS run — light/heavy split, sampling,
   edge decay per round (the Theorem 13 mechanism);
4. where every word of communication went, by message tag.

Run:  python examples/anatomy_of_a_run.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import EuclideanMetric, MPCCluster, TheoryConstants, mpc_kcenter
from repro.analysis.reports import format_table
from repro.core.degree_approx import mpc_degree_approximation
from repro.core.kbounded_mis import mpc_k_bounded_mis
from repro.core.kcenter import mpc_kcenter_coreset
from repro.obs import Recorder
from repro.workloads import gaussian_mixture


def main() -> None:
    rng = np.random.default_rng(1)
    points, _ = gaussian_mixture(1200, dim=2, components=10, rng=rng)
    metric = EuclideanMetric(points)
    k, eps, m = 10, 0.25, 6
    constants = TheoryConstants.practical()

    # ---- stage 1: the two-round coreset (lines 1-3 of Algorithm 5) --------
    cluster = MPCCluster(metric, m, seed=1)
    coreset = mpc_kcenter_coreset(cluster, k)
    Q, r = coreset.ids, coreset.value
    print(f"stage 1 — coreset: |Q| = {Q.size}, r = r(V, Q) = {r:.4f}")
    print(f"  guarantee: r*/1 <= r <= 4 r*  =>  r* in [{r/4:.4f}, {r:.4f}]")

    # ---- stage 2: the descending threshold ladder --------------------------
    t = int(math.ceil(math.log(4.0) / math.log1p(eps))) + 1
    taus = [r / (1.0 + eps) ** i for i in range(t + 1)]
    print(f"\nstage 2 — ladder: {t + 1} thresholds from {taus[0]:.4f} down to {taus[-1]:.4f}")
    print(f"  binary search will probe O(log t) = ~{max(1, int(math.log2(t)))+1} of them")

    # ---- stage 3: one k-bounded MIS probe, fully instrumented --------------
    tau_mid = taus[t // 2]
    cluster = MPCCluster(metric, m, seed=1)
    deg = mpc_degree_approximation(cluster, tau_mid, k + 1, constants)
    print(f"\nstage 3 — degree approximation at tau = {tau_mid:.4f}:")
    print(
        f"  sample size {deg.sample_size}, light {deg.light_count} / "
        f"heavy {deg.heavy_count}, light path taken: {deg.light_path_taken}"
    )

    # unbounded k forces the loop to exhaust the graph, exposing the
    # full Theorem 13 edge-decay trace (with k = 11 it exits in round 1)
    cluster = MPCCluster(metric, m, seed=1)
    mis = mpc_k_bounded_mis(cluster, tau_mid, 10**6, constants, instrument=True)
    rows = [
        {
            "outer round": i + 1,
            "active edges before": mis.edge_trace[i],
            "after": mis.edge_trace[i + 1] if i + 1 < len(mis.edge_trace) else 0,
            "decay": (
                mis.edge_trace[i] / max(1, mis.edge_trace[i + 1])
                if i + 1 < len(mis.edge_trace)
                else float("inf")
            ),
        }
        for i in range(max(0, len(mis.edge_trace) - 1))
    ]
    print(
        format_table(
            rows,
            title=f"  edge decay inside the MIS (terminated via {mis.terminated_via}, "
            f"|MIS| = {mis.size})",
        )
    )

    # ---- stage 4: the full pipeline with message tracing -------------------
    cluster = MPCCluster(metric, m, seed=1)
    rec = Recorder.attach(cluster)
    result = mpc_kcenter(cluster, k, epsilon=eps, constants=constants)
    rec.detach()
    print(
        format_table(
            [
                {"message tag": tag, "words": words}
                for tag, words in list(rec.log.words_by_tag().items())[:8]
            ],
            title=f"\nstage 4 — where the {cluster.stats.total_words} words went "
            f"(radius {result.radius:.4f} <= tau_j {result.tau:.4f}, "
            f"{result.rounds} rounds)",
        )
    )


if __name__ == "__main__":
    main()
