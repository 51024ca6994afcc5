"""The ``trim`` primitive of Algorithm 4 (a local variant of Luby's MIS).

    trim(S) = { v ∈ S : p_v > p_u for all u ∈ N(v) ∩ S }

keeps exactly the sampled vertices that are a *strict local maximum* of
the approximate-degree priority within the sample.  Its output is always
an independent set (two adjacent survivors would each need the strictly
larger priority).

**Tie-breaking (DESIGN.md §3, choice 1).**  Read literally, equal
priorities (common in regular graphs, where every approximate degree is
the same) make ``trim`` return the empty set and Algorithm 4 livelocks.
We therefore order vertices by the lexicographic key
``(p_v, tie_v, id_v)`` where ``tie`` is a per-round random priority —
exactly Luby's classic fix.  Lemma 10's bound survives: the event
"v has a neighbor with a ≥ key" is a subset of the event
"v has a neighbor with a ≥ priority", so the survival probability can
only increase.  ``mode='paper'`` restores the literal rule for the
ablation benchmark.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

#: Maximum adjacency entries per chunk when trimming large samples.
_CHUNK = 2_000_000


def trim(
    oracle,
    S: Iterable[int],
    tau: float,
    p: np.ndarray,
    tie: Optional[np.ndarray] = None,
    mode: str = "random",
) -> np.ndarray:
    """Return the trim of sample ``S`` in ``G_τ`` under priorities ``p``.

    Parameters
    ----------
    oracle:
        Object with ``within(I, J, tau)``.
    S:
        Sampled vertex ids (duplicates are collapsed).
    tau:
        Threshold of the graph ``G_τ``.
    p:
        Global array of approximate degrees, indexed by vertex id.
    tie:
        Global array of per-round random tie-break priorities.  Required
        for ``mode='random'``.
    mode:
        ``'random'`` (default, key ``(p, tie, id)``), ``'id'`` (key
        ``(p, id)``), or ``'paper'`` (the literal strict-inequality
        rule, which can return the empty set on priority ties).

    Returns
    -------
    numpy.ndarray
        The surviving ids — always an independent set in ``G_τ``.
    """
    S = np.unique(np.asarray(S, dtype=np.int64))
    if S.size == 0:
        return S
    if S.size == 1:
        return S

    pv = np.asarray(p, dtype=np.float64)[S]

    if mode == "paper":
        keys = pv
        strict = True
    elif mode == "id":
        order = np.lexsort((S, pv))
        keys = np.empty(S.size, dtype=np.float64)
        keys[order] = np.arange(S.size)
        strict = True
    elif mode == "random":
        if tie is None:
            raise ValueError("mode='random' requires a tie array")
        tv = np.asarray(tie, dtype=np.float64)[S]
        order = np.lexsort((S, tv, pv))
        keys = np.empty(S.size, dtype=np.float64)
        keys[order] = np.arange(S.size)
        strict = True
    else:
        raise ValueError(f"unknown trim mode {mode!r}")

    kept = np.ones(S.size, dtype=bool)
    step = max(1, _CHUNK // S.size)
    for lo in range(0, S.size, step):
        hi = min(S.size, lo + step)
        adj = oracle.within(S[lo:hi], S, tau)
        for r in range(lo, hi):
            adj[r - lo, r] = False  # no self-loop
        # v survives iff its key strictly exceeds every sampled neighbor's
        if strict:
            rival = np.where(adj, keys[None, :], -np.inf).max(axis=1)
            kept[lo:hi] = keys[lo:hi] > rival
    return S[kept]
