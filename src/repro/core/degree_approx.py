"""Algorithm 3 — MPC degree approximation in threshold graphs (Theorem 9).

Pipeline (each numbered step is one MPC round):

1. every machine samples its active vertices with probability ``1/m``
   and ships the sample to all machines (all-to-all);
2. machines classify their active vertices light/heavy against the
   global sample (Definition 4) and report their light counts to the
   central machine;
3. the central machine decides between the *light path* (too many light
   vertices ⇒ extract an independent set of size k, Lemma 6) and the
   *exact path*, and broadcasts its decision together with the sampling
   fraction ρ;
4. light path — machines send a ρ-fraction of their light vertices to
   the central machine, which runs the greedy extraction; exact path —
   machines exchange light vertices all-to-all, then exchange partial
   degrees ``d_i(v)``, so every machine knows the exact degree of every
   light vertex; heavy vertices take the estimate ``m·|N(v) ∩ S|``.

Robustness beyond the paper (DESIGN.md): the light-path extraction is
only guaranteed to reach ``k`` *with high probability*.  If the greedy
falls short (possible with scaled-down constants), we fall through to
the exact path instead of failing — correctness always, the w.h.p.
communication bound in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.constants import DEFAULT_CONSTANTS, TheoryConstants
from repro.core.light_heavy import greedy_bounded_independent_set, sample_degrees
from repro.mpc.cluster import MPCCluster
from repro.mpc.message import PointBatch


@dataclass
class DegreeApproxResult:
    """Outcome of Algorithm 3.

    Either ``kind == 'degrees'`` and :attr:`p` holds an approximate
    degree for every active vertex (NaN elsewhere), or
    ``kind == 'independent_set'`` and :attr:`independent_set` holds an
    independent set of size ``k`` extracted from the light vertices.
    """

    kind: str
    p: Optional[np.ndarray] = None
    independent_set: Optional[np.ndarray] = None
    light_count: int = 0
    heavy_count: int = 0
    sample_size: int = 0
    light_path_taken: bool = False
    light_path_fell_through: bool = False
    rounds_used: int = 0
    extras: dict = field(default_factory=dict)


def mpc_degree_approximation(
    cluster: MPCCluster,
    tau: float,
    k: int,
    constants: TheoryConstants = DEFAULT_CONSTANTS,
    active_by_machine: Optional[List[np.ndarray]] = None,
) -> DegreeApproxResult:
    """Run Algorithm 3 on the active subgraph of ``G_τ``.

    Parameters
    ----------
    cluster:
        The MPC deployment (its metric defines the threshold graph).
    tau:
        Distance threshold of ``G_τ``.
    k:
        Target independent-set size for the light path.
    constants:
        Analysis constants (δ etc.); see :mod:`repro.constants`.
    active_by_machine:
        Per-machine arrays of *active* vertex ids; defaults to each
        machine's full partition.  Degrees are with respect to the
        active induced subgraph.

    Returns
    -------
    DegreeApproxResult
    """
    if active_by_machine is None:
        active_by_machine = [mach.local_ids for mach in cluster.machines]
    active_by_machine = [np.asarray(a, dtype=np.int64) for a in active_by_machine]
    n_active_total = int(sum(a.size for a in active_by_machine))

    if n_active_total == 0:
        return DegreeApproxResult(kind="degrees", p=np.full(cluster.n, np.nan))

    with cluster.obs.span("degree/estimate", tau=tau, k=k, active=n_active_total):
        return _degree_approx_body(
            cluster, tau, k, constants, active_by_machine, n_active_total
        )


def _degree_approx_body(
    cluster: MPCCluster,
    tau: float,
    k: int,
    constants: TheoryConstants,
    active_by_machine: List[np.ndarray],
    n_active_total: int,
) -> DegreeApproxResult:
    m = cluster.m
    n = cluster.n  # thresholds use the global n, as in the paper
    round0 = cluster.round_no

    # -- round 1: sample with probability 1/m, exchange all-to-all ------------
    prob = 1.0 / m

    def _sample(mach):
        active = active_by_machine[mach.id]
        if active.size:
            mask = mach.rng.random(active.size) < prob
            return active[mask]
        return np.zeros(0, dtype=np.int64)

    drawn = cluster.map_machines(_sample)
    samples: dict[int, np.ndarray] = {i: drawn[i] for i in range(m)}
    cluster.all_to_all_points(samples, tag="degree/sample")
    S = np.concatenate(list(samples.values()))

    # -- local classification (independent per machine: parallelizable) ---------
    heavy_thr = constants.heavy_threshold(n)

    def _classify(mach):
        active = active_by_machine[mach.id]
        sdeg = sample_degrees(mach, active, S, tau)
        heavy = sdeg >= heavy_thr
        return sdeg, heavy, active[~heavy]

    classified = cluster.map_machines(_classify)
    sdeg_by_machine: List[np.ndarray] = [c[0] for c in classified]
    heavy_mask_by_machine: List[np.ndarray] = [c[1] for c in classified]
    light_by_machine: List[np.ndarray] = [c[2] for c in classified]

    # -- round 2: report light counts -------------------------------------------
    inbox = cluster.gather_to_central(
        {i: int(light_by_machine[i].size) for i in range(m)}, tag="degree/light-count"
    )
    total_light = sum(int(msg.payload) for msg in inbox)
    total_heavy = n_active_total - total_light

    trigger = constants.light_path_trigger(n, m, k)
    take_light_path = total_light > trigger

    # -- round 3: broadcast the decision + rho ----------------------------------
    rho = min(1.0, trigger / total_light) if (take_light_path and total_light > 0) else 0.0
    cluster.broadcast(
        cluster.CENTRAL,
        {"light_path": take_light_path, "rho": rho},
        tag="degree/decision",
    )
    cluster.step()

    fell_through = False
    if take_light_path:
        # -- round 4: ship a rho-fraction of light vertices to central ---------
        shipped: dict[int, PointBatch] = {}
        for i in range(m):
            light = light_by_machine[i]
            count = int(np.ceil(rho * light.size))
            shipped[i] = PointBatch(light[:count])
        inbox = cluster.gather_to_central(shipped, tag="degree/light-ship")
        P = np.concatenate([msg.payload.ids for msg in inbox]) if inbox else np.zeros(0, np.int64)
        ind = greedy_bounded_independent_set(cluster.central, P, tau, k)
        if ind.size >= k:
            return DegreeApproxResult(
                kind="independent_set",
                independent_set=ind[:k],
                light_count=total_light,
                heavy_count=total_heavy,
                sample_size=int(S.size),
                light_path_taken=True,
                rounds_used=cluster.round_no - round0,
            )
        # w.h.p. this does not happen; fall through to the exact path so the
        # overall algorithm keeps its unconditional correctness.
        fell_through = True

    # -- exact path: all-to-all light vertices ----------------------------------
    # (the paper's line 8; received volume per machine is |L| = Õ(mk))
    cluster.all_to_all_points(
        {i: light_by_machine[i] for i in range(m)}, tag="degree/light-bcast"
    )

    # each machine computes its partial degree d_i(v) for every light v and
    # returns the vector *to the owner of v* (line 9 read communication-
    # optimally: only the owner needs d(v), so sending the partials to all
    # machines would waste an m-factor of bandwidth)
    light_all = np.concatenate(light_by_machine)
    light_ends = np.cumsum([L_o.size for L_o in light_by_machine])

    def _partials(mach):
        active = active_by_machine[mach.id]
        # self-hits of every light vertex in one pass, not one per owner
        self_hit = np.split(np.isin(light_all, active).astype(np.int64), light_ends[:-1])
        if active.size:
            # one strict check for every owner's light vertices, not one
            # per owner
            mach.require_known(light_all)
            mach.require_known(active)
        out = []
        for owner in range(m):
            L_o = light_by_machine[owner]
            if L_o.size and active.size:
                cnt = mach.metric.count_within(L_o, active, tau) - self_hit[owner]
            else:
                cnt = np.zeros(L_o.size, dtype=np.int64)
            out.append(cnt)
        return out

    per_machine_partials = cluster.map_machines(_partials)
    light_sizes = [L_o.size for L_o in light_by_machine]
    for i in range(m):
        owners = [owner for owner in range(m) if owner != i]
        if owners:
            cluster.scatter(
                i, owners,
                np.concatenate([per_machine_partials[i][o] for o in owners]).astype(np.float64),
                [light_sizes[o] for o in owners], tag="degree/partials",
            )
    cluster.step()
    exact_light_deg_by_owner = [
        np.sum(
            np.stack([per_machine_partials[i][owner] for i in range(m)]), axis=0
        )
        if light_by_machine[owner].size
        else np.zeros(0)
        for owner in range(m)
    ]

    # assemble the global p array (each value was computed by the machine
    # that owns the vertex; the driver-side array is bookkeeping only)
    p = np.full(n, np.nan, dtype=np.float64)
    for owner, (active, sdeg, heavy) in enumerate(
        zip(active_by_machine, sdeg_by_machine, heavy_mask_by_machine)
    ):
        if active.size == 0:
            continue
        p[active[heavy]] = float(m) * sdeg[heavy].astype(np.float64)
        p[light_by_machine[owner]] = exact_light_deg_by_owner[owner]

    return DegreeApproxResult(
        kind="degrees",
        p=p,
        light_count=total_light,
        heavy_count=total_heavy,
        sample_size=int(S.size),
        light_path_taken=take_light_path,
        light_path_fell_through=fell_through,
        rounds_used=cluster.round_no - round0,
    )
