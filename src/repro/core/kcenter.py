"""Algorithm 5 — (2+ε)-approximation MPC k-center (Theorem 17), plus
the two-round 4-approximation side product.

Structure:

* **Lines 1–3** (:func:`mpc_kcenter_coreset`): machines run GMM locally,
  the central machine runs GMM on the union, and ``r = r(V, Q)`` is a
  4-approximation of the optimal radius (via Lemma 16,
  ``r(S, GMM(S)) ≤ div_{k+1}(S)``, and ``div_{k+1}(V) ≤ 2r*``).  This
  matches the Malkomes et al. bound in two rounds.
* **Lines 4–7** (:func:`mpc_kcenter`): probe the *descending* ladder
  ``τ_i = r/(1+ε)^i`` with (k+1)-bounded MIS runs.  At the flip index,
  ``M_j`` (≤ k points, maximal) covers V with radius τ_j, while the
  k+1 independent points of ``M_{j+1}`` certify ``r* ≥ τ_{j+1}/2`` by
  pigeonhole — together a 2(1+ε) factor.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_CONSTANTS, TheoryConstants
from repro.core.gmm import gmm
from repro.core.kbounded_mis import mpc_k_bounded_mis
from repro.core.results import ClusteringResult, CoresetResult
from repro.core.threshold_search import find_flip
from repro.core.warm import WarmStart
from repro.exceptions import InfeasibleInstanceError
from repro.mpc.cluster import MPCCluster
from repro.mpc.message import PointBatch


def _distributed_radius(cluster: MPCCluster, centers: np.ndarray) -> float:
    """``r(V, centers)`` in two MPC rounds: broadcast the centers, gather
    the per-machine maxima."""
    with cluster.obs.span("kcenter/radius", centers=int(centers.size)):
        cluster.broadcast_points_from_central(centers, tag="kcenter/centers")
        local_r = cluster.map_machines(
            lambda mach: float(mach.dist_to_set(mach.local_ids, centers).max())
            if mach.local_ids.size
            else 0.0
        )
        inbox = cluster.gather_to_central(
            {i: local_r[i] for i in range(cluster.m)}, tag="kcenter/radius"
        )
        return max(float(msg.payload) for msg in inbox)


def mpc_kcenter_coreset(
    cluster: MPCCluster, k: int, warm_start: Optional[WarmStart] = None
) -> CoresetResult:
    """Lines 1–3 of Algorithm 5: the two-round 4-approximation.

    Returns a :class:`CoresetResult` with ``|ids| = k`` and
    ``r* ≤ value = r(V, ids) ≤ 4r*``.

    With ``warm_start`` (an append-chained child re-solve), the
    per-machine GMM runs only over each machine's *delta* points (ids
    ``≥ warm_start.base_n``); the parent's centers — which already
    summarize the old points — are shipped alongside and join the union
    before the central GMM.  Same round structure, ``O(k·base_n)``
    fewer oracle evaluations, and ``r = r(V, Q)`` is still measured
    against the full child dataset.
    """
    if k < 1:
        raise InfeasibleInstanceError("k-center needs k >= 1")
    if k > cluster.n:
        raise InfeasibleInstanceError(f"k={k} exceeds the number of points n={cluster.n}")
    if warm_start is not None and warm_start.base_n >= cluster.n:
        raise InfeasibleInstanceError(
            f"warm start base_n={warm_start.base_n} leaves no delta in n={cluster.n}"
        )
    round0 = cluster.round_no

    with cluster.obs.span("kcenter/coreset", k=k, warm=warm_start is not None):
        if warm_start is None:
            local_T = cluster.map_machines(lambda mach: gmm(mach, mach.local_ids, k))
        else:
            ws = warm_start

            def _local(mach):
                # GMM over the delta only; attach the parent centers this
                # machine owns so the central union still sees them.
                T_i = gmm(mach, ws.delta_ids(mach.local_ids), k)
                return np.union1d(T_i, ws.local_centers(mach.local_ids))

            local_T = cluster.map_machines(_local)
        payloads = {i: PointBatch(local_T[i]) for i in range(cluster.m)}
        inbox = cluster.gather_to_central(payloads, tag="kcenter/coreset")
        T = np.unique(np.concatenate([msg.payload.ids for msg in inbox]))
        Q = gmm(cluster.central, T, k)
        r = _distributed_radius(cluster, Q)
    return CoresetResult(
        ids=Q, value=float(r), k=k, kind="kcenter", rounds=cluster.round_no - round0
    )


def mpc_kcenter(
    cluster: MPCCluster,
    k: int,
    epsilon: float = 0.1,
    constants: Optional[TheoryConstants] = None,
    trim_mode: str = "random",
    warm_start: Optional[WarmStart] = None,
) -> ClusteringResult:
    """Algorithm 5: (2+ε)-approximate k-center in O(log 1/ε) probes.

    Parameters
    ----------
    cluster:
        The MPC deployment over the input metric.
    k:
        Number of centers (1 ≤ k ≤ n).
    epsilon:
        Approximation slack; the output radius is at most
        ``2(1+ε)·r*``.
    constants, trim_mode:
        Forwarded to the inner (k+1)-bounded MIS runs.
    warm_start:
        Optional :class:`~repro.core.warm.WarmStart` from a parent
        dataset version; only the coreset stage changes (per-machine
        GMM over the delta, parent centers joining the union).  The
        threshold ladder runs unchanged over the full dataset, so the
        output still satisfies the (2+ε) guarantee.

    Returns
    -------
    ClusteringResult
        ``centers`` of size ≤ k; ``radius = r(V, centers)``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    constants = constants or DEFAULT_CONSTANTS
    round0 = cluster.round_no

    with cluster.obs.span("kcenter/run", k=k, epsilon=epsilon):
        coreset = mpc_kcenter_coreset(cluster, k, warm_start=warm_start)
        Q, r = coreset.ids, coreset.value
        if r <= 0.0:
            # Q already covers everything at radius 0: optimal.
            return ClusteringResult(
                centers=Q,
                radius=0.0,
                k=k,
                epsilon=epsilon,
                tau=0.0,
                coreset_value=r,
                rounds=cluster.round_no - round0,
                stats=cluster.stats.summary(),
            )

        t = int(math.ceil(math.log(4.0) / math.log1p(epsilon))) + 1
        taus = [r / (1.0 + epsilon) ** i for i in range(t + 1)]

        def probe(i: int) -> np.ndarray:
            if i == 0:
                return Q
            with cluster.obs.span("kcenter/probe", ladder_index=i, tau=taus[i]):
                return mpc_k_bounded_mis(
                    cluster, taus[i], k + 1, constants, trim_mode=trim_mode
                ).ids

        def good(M: np.ndarray) -> bool:
            # a (k+1)-bounded MIS of size ≤ k is maximal, hence a k-center
            # solution with radius τ_i; size k+1 certifies a lower bound.
            return M.size <= k

        cache: dict[int, np.ndarray] = {0: Q}

        def cached_probe(i: int) -> np.ndarray:
            if i not in cache:
                cache[i] = probe(i)
            return cache[i]

        lo, hi = 0, t
        if warm_start is not None and warm_start.objective > 0.0:
            # Bracket the flip search at the rung nearest the parent's
            # objective.  MIS probes get sharply more expensive as τ
            # shrinks, and the cold path always pays for the costliest
            # rung (τ_t, the bracket's bad end).  When the pivot probe
            # is already bad — the common case, since the child's
            # radius rarely drops below the parent's — the search stays
            # in [0, pivot] and the τ_t probe is skipped entirely.
            guess = math.log(r / warm_start.objective) / math.log1p(epsilon)
            pivot = min(max(int(round(guess)), 1), t - 1)
            if good(cached_probe(pivot)):
                lo = pivot
            else:
                hi = pivot
        if good(cached_probe(hi)):
            # hi can only be good when it is τ_t itself.  Theory forbids
            # this (τ_t < r/4 ≤ r*), but if the MIS hands us a ≤k maximal
            # set at an even smaller radius, it is simply a better
            # solution — take it.
            centers, tau_j = cache[hi], taus[hi]
        else:
            j, M_j, _ = find_flip(
                probe, good, lo, hi, cache, obs=cluster.obs, span="kcenter/search"
            )
            centers, tau_j = M_j, taus[j]

        radius = _distributed_radius(cluster, centers)
    return ClusteringResult(
        centers=centers,
        radius=float(radius),
        k=k,
        epsilon=epsilon,
        tau=float(tau_j),
        coreset_value=r,
        rounds=cluster.round_no - round0,
        stats=cluster.stats.summary(),
    )
