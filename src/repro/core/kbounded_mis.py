"""Algorithm 4 — massively parallel k-bounded MIS (Theorems 13–15).

A *k-bounded MIS* (Definition 1) is either a maximal independent set of
size ≤ k, or an independent set of size exactly k.  Each outer round:

1. approximate all active degrees with Algorithm 3 (a light-path hit
   already yields an independent set of size k ⇒ done);
2. every machine draws ``m`` independent samples of its active
   vertices, vertex ``v`` entering each sample with probability
   ``min(1, 1/(2 p_v))``;
3. if the expected sample size ``Σ q_v`` exceeds ``10 k ln n``, run the
   *pruning step*: machines trim their samples locally, exchange the
   trims so machine ``j`` assembles ``T_j = trim(∪_i trim(S_i^j))``,
   and the largest ``T_j`` yields an independent set of size k w.h.p.
   (Theorem 14);
4. otherwise ship all samples to the central machine, which plays the
   ``m`` rounds of Luby-style elimination locally (*round compression*):
   for each ``j``, trim the union sample, add the trim to the MIS, and
   delete its neighborhood from its local copy;
5. broadcast the new MIS members; every machine deletes them and their
   neighborhoods from its active set.

The loop ends when the MIS reaches size k or the active graph empties
(the accumulated set is then maximal).

Deviations, all documented in DESIGN.md §3: trim uses a per-round
random tie-break (the literal rule livelocks on priority ties); the
pruning step falls back to *committing the largest T_j to the MIS* when
it unluckily comes up shorter than k (progress is preserved; w.h.p. the
fallback never fires); sampling probabilities are clamped to 1 so
isolated vertices (p_v = 0) are always sampled.

Observability: the run opens a ``mis/run`` phase span; every outer
round nests a ``mis/round`` span, with ``mis/prune`` / ``mis/luby``
child spans around the two elimination paths (the inner Algorithm 3
call contributes its own ``degree/estimate`` span).  See
``docs/observability.md``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.constants import DEFAULT_CONSTANTS, TheoryConstants
from repro.core.degree_approx import mpc_degree_approximation
from repro.core.results import MISResult
from repro.core.threshold_graph import ThresholdGraphView
from repro.core.trim import trim
from repro.exceptions import ConvergenceError
from repro.mpc.cluster import MPCCluster
from repro.mpc.message import PointBatch


def _sample_probability(p: np.ndarray) -> np.ndarray:
    """``q_v = min(1, 1/(2 p_v))`` with the isolated-vertex clamp."""
    q = np.empty_like(p)
    small = p <= 0.5
    q[small] = 1.0
    q[~small] = 1.0 / (2.0 * p[~small])
    return q


def _combine_k(mis: np.ndarray, extra: np.ndarray, k: int) -> np.ndarray:
    """First k ids of ``mis ∪ extra`` (both independent, cross-safe)."""
    merged = np.concatenate([mis, extra])
    _, first = np.unique(merged, return_index=True)
    merged = merged[np.sort(first)]
    return merged[:k]


def mpc_k_bounded_mis(
    cluster: MPCCluster,
    tau: float,
    k: int,
    constants: TheoryConstants = DEFAULT_CONSTANTS,
    active_by_machine: Optional[List[np.ndarray]] = None,
    max_outer_rounds: int = 200,
    instrument: bool = False,
    trim_mode: str = "random",
    enable_pruning: bool = True,
) -> MISResult:
    """Compute a k-bounded MIS of ``G_τ`` in the MPC model.

    Parameters
    ----------
    cluster:
        The MPC deployment.
    tau:
        Distance threshold of the graph ``G_τ``.
    k:
        Bound of Definition 1.
    constants:
        Analysis constants (δ, pruning trigger, the internal ε = 1/6).
    active_by_machine:
        Restrict the graph to these vertices (defaults to everything).
    max_outer_rounds:
        Safety budget; exceeded only on < 1/n probability events
        (raises :class:`~repro.exceptions.ConvergenceError`).
    instrument:
        Record the exact active-edge count at the top of each outer
        round in :attr:`MISResult.edge_trace` (driver-side O(|V|²)
        oracle work; never part of the simulated communication).
    trim_mode:
        Tie-breaking rule for ``trim`` (``'random'``, ``'id'``,
        ``'paper'``); see :mod:`repro.core.trim`.
    enable_pruning:
        Turn Theorem 14's pruning step off for the ablation benchmark.

    Returns
    -------
    MISResult
        ``ids`` independent in ``G_τ``; ``maximal`` true iff the active
        graph was exhausted.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    with cluster.obs.span("mis/run", tau=tau, k=k):
        return _mis_body(
            cluster,
            tau,
            k,
            constants,
            active_by_machine,
            max_outer_rounds,
            instrument,
            trim_mode,
            enable_pruning,
        )


def _mis_body(
    cluster: MPCCluster,
    tau: float,
    k: int,
    constants: TheoryConstants,
    active_by_machine: Optional[List[np.ndarray]],
    max_outer_rounds: int,
    instrument: bool,
    trim_mode: str,
    enable_pruning: bool,
) -> MISResult:
    m = cluster.m
    n = cluster.n
    round0 = cluster.round_no

    if active_by_machine is None:
        active = [mach.local_ids.copy() for mach in cluster.machines]
    else:
        active = [np.asarray(a, dtype=np.int64).copy() for a in active_by_machine]

    mis = np.zeros(0, dtype=np.int64)
    edge_trace: list = []

    for outer in range(max_outer_rounds):
        total_active = int(sum(a.size for a in active))
        if instrument:
            all_active = (
                np.concatenate([a for a in active]) if total_active else np.zeros(0, np.int64)
            )
            edge_trace.append(
                ThresholdGraphView(cluster.metric, all_active, tau).num_edges()
            )
        if total_active == 0 or mis.size >= k:
            break

        with cluster.obs.span("mis/round", outer=outer, active=total_active):
            result = _mis_outer_round(
                cluster, tau, k, constants, active, mis,
                trim_mode, enable_pruning, m, n,
                round0, edge_trace,
            )
        if isinstance(result, MISResult):
            return result
        mis, active = result

    if mis.size < k and sum(a.size for a in active) > 0:
        raise ConvergenceError("mpc_k_bounded_mis", max_outer_rounds)

    if mis.size >= k:
        return MISResult(
            ids=mis[:k],
            tau=tau,
            k=k,
            maximal=False,
            terminated_via="size_k_central",
            rounds=cluster.round_no - round0,
            edge_trace=edge_trace,
        )
    return MISResult(
        ids=mis,
        tau=tau,
        k=k,
        maximal=True,
        terminated_via="maximal",
        rounds=cluster.round_no - round0,
        edge_trace=edge_trace,
    )


def _mis_outer_round(
    cluster: MPCCluster,
    tau: float,
    k: int,
    constants: TheoryConstants,
    active: List[np.ndarray],
    mis: np.ndarray,
    trim_mode: str,
    enable_pruning: bool,
    m: int,
    n: int,
    round0: int,
    edge_trace: list,
):
    """One outer round.  Returns a terminal :class:`MISResult`, or the
    updated ``(mis, active)`` pair when the loop should continue."""
    # -- line 3: degree approximation --------------------------------------
    deg = mpc_degree_approximation(cluster, tau, k, constants, active)
    if deg.kind == "independent_set":
        out = _combine_k(mis, deg.independent_set, k)
        return MISResult(
            ids=out,
            tau=tau,
            k=k,
            maximal=False,
            terminated_via="size_k_light_path",
            rounds=cluster.round_no - round0,
            edge_trace=edge_trace,
        )
    p = deg.p

    # shared per-round random tie-break priorities: each machine draws for
    # its own vertices; values travel with the samples (PointBatch columns)
    tie_draws = cluster.map_machines(
        lambda mach: mach.rng.random(active[mach.id].size)
        if active[mach.id].size
        else np.zeros(0, dtype=np.float64)
    )
    tie = np.full(n, np.nan, dtype=np.float64)
    for act, draws in zip(active, tie_draws):
        if act.size:
            tie[act] = draws

    # -- line 5: every machine draws m samples (parallel local work) --------
    def _draw(mach):
        act = active[mach.id]
        if act.size:
            q = _sample_probability(p[act])
            draws = mach.rng.random((act.size, m)) < q[:, None]
            return float(q.sum()), [act[draws[:, j]] for j in range(m)]
        return 0.0, [np.zeros(0, dtype=np.int64) for _ in range(m)]

    drawn = cluster.map_machines(_draw)
    local_expected = np.array([d[0] for d in drawn])
    sample_sets: List[List[np.ndarray]] = [d[1] for d in drawn]

    # -- line 6: global expected-size check (gather + broadcast) ------------
    inbox = cluster.gather_to_central(
        {i: float(local_expected[i]) for i in range(m)}, tag="mis/expected-size"
    )
    expected_total = sum(float(msg.payload) for msg in inbox)
    prune = enable_pruning and expected_total > constants.pruning_trigger(n, k)
    cluster.broadcast(cluster.CENTRAL, bool(prune), tag="mis/prune-decision")
    cluster.step()

    if prune:
        with cluster.obs.span("mis/prune"):
            # -- lines 7–8: pruning step ----------------------------------------
            # local trims, one parallel task per machine (trim is pure given
            # p/tie, so computing all m trims per machine before scanning for
            # a k-sized one returns the same set the serial scan would)
            local_trims: List[List[np.ndarray]] = cluster.map_machines(
                lambda mach: [
                    trim(mach, sample_sets[mach.id][j], tau, p, tie, mode=trim_mode)
                    for j in range(m)
                ]
            )
            # an immediate k-sized trim short-circuits (first in machine-major
            # order, matching the historical scan)
            for trims_i in local_trims:
                for t in trims_i:
                    if t.size >= k:
                        out = _combine_k(mis, t, k)
                        return MISResult(
                            ids=out,
                            tau=tau,
                            k=k,
                            maximal=False,
                            terminated_via="size_k_pruning",
                            rounds=cluster.round_no - round0,
                            edge_trace=edge_trace,
                        )

            # machine i ships trim(S_i^j) to machine j (one round)
            for i in range(m):
                others = [j for j in range(m) if j != i]
                if others:
                    ids = np.concatenate([local_trims[i][j] for j in others])
                    cluster.scatter(
                        i, others, PointBatch(ids, {"p": p[ids], "tie": tie[ids]}),
                        [local_trims[i][j].size for j in others], tag="mis/prune-exchange",
                    )
            cluster.step()

            # machine j assembles T_j = trim(union of trims), its own trim
            # first and then the received ones in sender order
            best_T = np.zeros(0, dtype=np.int64)
            tj_payload: dict[int, PointBatch] = {}
            for j in range(m):
                parts = [local_trims[j][j]] + [local_trims[i][j] for i in range(m) if i != j]
                union = np.concatenate(parts)
                T_j = trim(cluster.machines[j], union, tau, p, tie, mode=trim_mode)
                T_j = T_j[:k]  # a k-subset suffices and caps communication
                tj_payload[j] = PointBatch(T_j)

            # ship the T_j's to the central machine, which keeps the largest
            inbox = cluster.gather_to_central(tj_payload, tag="mis/prune-collect")
            for msg in inbox:
                if msg.payload.ids.size > best_T.size:
                    best_T = msg.payload.ids
            if mis.size + best_T.size >= k:
                out = _combine_k(mis, best_T, k)
                return MISResult(
                    ids=out,
                    tau=tau,
                    k=k,
                    maximal=False,
                    terminated_via="size_k_pruning",
                    rounds=cluster.round_no - round0,
                    edge_trace=edge_trace,
                )
            # w.h.p. unreachable: commit the largest T_j as ordinary progress
            new_mis = best_T
    else:
        with cluster.obs.span("mis/luby"):
            # -- lines 10–16: ship samples to central, compress m Luby rounds ----
            # machine i sends its m samples as m messages; the j column
            # names the sample each point belongs to
            for i in range(m):
                ids = np.concatenate(sample_sets[i])
                sizes = [batch.size for batch in sample_sets[i]]
                jcol = np.repeat(np.arange(m), sizes)
                cluster.scatter(
                    i, [cluster.CENTRAL] * m,
                    PointBatch(ids, {"p": p[ids], "tie": tie[ids], "j": jcol}),
                    sizes, tag="mis/samples",
                )
            cluster.step()

            # S_j as the central machine received it: sample j of every
            # machine, in sender order
            union_by_j: List[List[np.ndarray]] = [
                [sample_sets[i][j] for i in range(m) if sample_sets[i][j].size]
                for j in range(m)
            ]

            central = cluster.central
            removed = np.zeros(n, dtype=bool)
            additions: list[np.ndarray] = []
            # every sample vertex received this round: the central
            # machine's local copy that M_j ∪ N(M_j) is deleted from
            received = [np.concatenate(u) for u in union_by_j if u]
            all_sample = (
                np.unique(np.concatenate(received)) if received
                else np.zeros(0, dtype=np.int64)
            )
            for j in range(m):
                if not union_by_j[j]:
                    continue
                S_j = np.unique(np.concatenate(union_by_j[j]))
                S_j = S_j[~removed[S_j]]
                if S_j.size == 0:
                    continue
                M_j = trim(central, S_j, tau, p, tie, mode=trim_mode)
                if M_j.size == 0:
                    continue
                additions.append(M_j)
                candidates = all_sample[~removed[all_sample]]
                if candidates.size:
                    near = central.within(candidates, M_j, tau).any(axis=1)
                    removed[candidates[near]] = True
                removed[M_j] = True
                if mis.size + sum(a.size for a in additions) >= k:
                    break
            new_mis = (
                np.concatenate(additions) if additions else np.zeros(0, dtype=np.int64)
            )

    # -- lines 17–18: broadcast additions, machines prune their actives -----
    cluster.broadcast(cluster.CENTRAL, PointBatch(new_mis), tag="mis/additions")
    cluster.step()
    if new_mis.size:
        mis = np.concatenate([mis, new_mis])

        def _prune(mach):
            act = active[mach.id]
            if act.size == 0:
                return act
            near = mach.within(act, new_mis, tau).any(axis=1)
            return act[~near & ~np.isin(act, new_mis)]

        active = cluster.map_machines(_prune)

    if mis.size >= k:
        return MISResult(
            ids=mis[:k],
            tau=tau,
            k=k,
            maximal=False,
            terminated_via="size_k_central",
            rounds=cluster.round_no - round0,
            edge_trace=edge_trace,
        )
    return mis, active
