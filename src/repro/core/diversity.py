"""Algorithm 2 — (2+ε)-approximation MPC k-diversity maximization
(Theorem 3), plus the two-round 4-approximation side product.

Structure:

* **Lines 1–3** (:func:`mpc_diversity_coreset`): every machine runs GMM
  locally; the central machine runs GMM on the union of the local
  outputs.  The larger of the local diversities and the central one is
  a 4-approximation ``r`` of the optimum — already better than the
  6-approximation of Indyk et al.'s composable coresets.
* **Lines 4–7** (:func:`mpc_diversity`): probe the geometric threshold
  ladder ``τ_i = r·(1+ε)^i`` with k-bounded MIS runs and binary-search
  the flip index ``j`` where ``|M_j| = k`` but ``|M_{j+1}| < k``.
  ``M_j`` has pairwise distances > τ_j and the maximality of
  ``M_{j+1}`` pins the optimum below ``2(1+ε)τ_j`` (pigeonhole on the
  covering balls), giving the 2+ε factor.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_CONSTANTS, TheoryConstants
from repro.core.gmm import gmm
from repro.core.kbounded_mis import mpc_k_bounded_mis
from repro.core.results import CoresetResult, DiversityResult
from repro.core.threshold_search import find_flip
from repro.core.warm import WarmStart
from repro.exceptions import InfeasibleInstanceError, InvalidSolutionError
from repro.mpc.cluster import MPCCluster
from repro.mpc.message import PointBatch


def mpc_diversity_coreset(
    cluster: MPCCluster, k: int, warm_start: Optional[WarmStart] = None
) -> CoresetResult:
    """Lines 1–3 of Algorithm 2: the two-round 4-approximation.

    Returns a :class:`CoresetResult` — a k-subset ``ids`` with
    ``div(ids) = value`` and the guarantee ``value ≤ div_k(V) ≤ 4·value``
    (Theorem 3's first stage).

    With ``warm_start`` (an append-chained child re-solve), each
    machine's GMM runs only over its *delta* points (ids ≥ ``base_n``)
    and ships the parent centers it owns alongside, so the central
    union still sees the summary of the old points — same rounds,
    ``O(k·base_n)`` fewer oracle evaluations.
    """
    if k < 2:
        raise InfeasibleInstanceError("diversity maximization needs k >= 2")
    if k > cluster.n:
        raise InfeasibleInstanceError(f"k={k} exceeds the number of points n={cluster.n}")
    if warm_start is not None and warm_start.base_n >= cluster.n:
        raise InfeasibleInstanceError(
            f"warm start base_n={warm_start.base_n} leaves no delta in n={cluster.n}"
        )
    round0 = cluster.round_no

    with cluster.obs.span("div/coreset", k=k, warm=warm_start is not None):
        ws = warm_start

        def _local(mach):
            if ws is None:
                T_i = gmm(mach, mach.local_ids, k)
                r_i = mach.diversity(T_i) if T_i.size == k else 0.0
                return T_i, float(r_i)
            # warm: GMM over the delta only, parent centers shipped
            # alongside.  The local certificate r_i is skipped — the
            # shipped set mixes delta picks with parent centers, so its
            # diversity is not a pure local GMM bound; the central
            # candidate carries the warm value instead.
            T_i = gmm(mach, ws.delta_ids(mach.local_ids), k)
            return np.union1d(T_i, ws.local_centers(mach.local_ids)), 0.0

        locals_T = cluster.map_machines(_local)
        payloads = {
            i: (PointBatch(T_i), r_i) for i, (T_i, r_i) in enumerate(locals_T)
        }
        inbox = cluster.gather_to_central(payloads, tag="div/coreset")

        central = cluster.central
        T_parts = []
        best_local = (-1.0, None)
        for msg in inbox:
            batch, r_i = msg.payload
            T_parts.append(batch.ids)
            if r_i > best_local[0]:
                best_local = (r_i, batch.ids)
        T = np.unique(np.concatenate(T_parts))

        S = gmm(central, T, k)
        r0 = central.diversity(S) if S.size == k else 0.0

        if r0 >= best_local[0]:
            ids, value = S, float(r0)
        else:
            ids, value = np.asarray(best_local[1], dtype=np.int64), float(best_local[0])
    return CoresetResult(
        ids=ids, value=value, k=k, kind="diversity", rounds=cluster.round_no - round0
    )


def mpc_diversity(
    cluster: MPCCluster,
    k: int,
    epsilon: float = 0.1,
    constants: Optional[TheoryConstants] = None,
    trim_mode: str = "random",
    warm_start: Optional[WarmStart] = None,
) -> DiversityResult:
    """Algorithm 2: (2+ε)-approximate k-diversity in O(log 1/ε) probes.

    Parameters
    ----------
    cluster:
        The MPC deployment over the input metric.
    k:
        Subset size (2 ≤ k ≤ n).
    epsilon:
        Approximation slack; the output diversity is at least
        ``div_k(V) / (2(1+ε))``.
    constants:
        Analysis constants for the inner MIS runs.
    trim_mode:
        Tie-break rule forwarded to the MIS runs.
    warm_start:
        Optional :class:`~repro.core.warm.WarmStart` from a parent
        dataset version; only the coreset stage changes (per-machine
        GMM over the delta, parent centers joining the union).  Because
        the warm coreset value is a valid lower bound but not a
        certified 4-approximation, the ladder extends itself upward if
        the top rung still yields a size-k independent set.

    Returns
    -------
    DiversityResult
        ``ids`` of size exactly k; ``diversity = div(ids)``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    constants = constants or DEFAULT_CONSTANTS
    round0 = cluster.round_no

    with cluster.obs.span("div/run", k=k, epsilon=epsilon):
        coreset = mpc_diversity_coreset(cluster, k, warm_start=warm_start)
        Q, r = coreset.ids, coreset.value
        if r <= 0.0:
            # optimum is 0 (≥ k duplicate points); any k-subset is optimal
            return DiversityResult(
                ids=Q,
                diversity=float(cluster.metric.diversity(Q)) if Q.size >= 2 else 0.0,
                k=k,
                epsilon=epsilon,
                coreset_value=r,
                rounds=cluster.round_no - round0,
                stats=cluster.stats.summary(),
            )

        t = int(math.ceil(math.log(4.0) / math.log1p(epsilon))) + 1
        taus = [r * (1.0 + epsilon) ** i for i in range(t + 1)]

        def probe(i: int) -> np.ndarray:
            if i == 0:
                return Q
            with cluster.obs.span("div/probe", ladder_index=i, tau=taus[i]):
                return mpc_k_bounded_mis(
                    cluster, taus[i], k, constants, trim_mode=trim_mode
                ).ids

        def good(M: np.ndarray) -> bool:
            return M.size == k

        cache: dict[int, np.ndarray] = {0: Q}

        def cached_probe(i: int) -> np.ndarray:
            if i not in cache:
                cache[i] = probe(i)
            return cache[i]

        lo, hi = 0, t
        if warm_start is not None and warm_start.objective > 0.0:
            # Bracket the flip search at the rung nearest the parent's
            # objective (diversity only grows under appends, so the
            # child's flip usually sits at or above it).  A bad pivot
            # probe bounds the search in [0, pivot] and skips the τ_t
            # probe — and with it the whole ladder-extension question.
            guess = math.log(warm_start.objective / r) / math.log1p(epsilon)
            pivot = min(max(int(round(guess)), 1), t - 1)
            if good(cached_probe(pivot)):
                lo = pivot
            else:
                hi = pivot
        if hi == t:
            probe_t = cached_probe(t)
            if good(probe_t) and warm_start is not None:
                # The warm coreset value is a valid lower bound but not a
                # certified 4-approximation, so the ladder may start too
                # low.  Extend it geometrically (each block multiplies the
                # ceiling by another 4×) until the top rung goes bad.
                for _ in range(8):
                    taus.extend(
                        taus[-1] * (1.0 + epsilon) ** i for i in range(1, t + 1)
                    )
                    t = len(taus) - 1
                    hi = t
                    probe_t = cached_probe(t)
                    if not good(probe_t):
                        break
            if good(probe_t):
                # theory forbids this (τ_t > 4r ≥ div_k(V)); a size-k
                # independent set at τ_t would certify diversity > 4r,
                # contradicting r's 4-approximation guarantee.
                raise InvalidSolutionError(
                    "k-bounded MIS returned a size-k independent set above the "
                    "4-approximation ceiling — the MIS or the coreset stage is broken"
                )
        j, M_j, _ = find_flip(
            probe, good, lo, hi, cache, obs=cluster.obs, span="div/search"
        )

        div_val = float(cluster.metric.diversity(M_j))
    return DiversityResult(
        ids=M_j,
        diversity=div_val,
        k=k,
        epsilon=epsilon,
        coreset_value=r,
        rounds=cluster.round_no - round0,
        stats=cluster.stats.summary(),
    )
