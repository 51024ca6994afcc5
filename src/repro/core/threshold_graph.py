"""Threshold-graph views ``G_τ``.

``G_τ`` has an edge between ``u`` and ``v`` iff ``d(u, v) ≤ τ``
(Section 2).  The graph is never materialized: a
:class:`ThresholdGraphView` answers degree and neighborhood queries
directly through the distance oracle, restricted to an *active* vertex
set (Algorithm 4 repeatedly shrinks that set).

Self-loops are excluded: a vertex is not its own neighbor, even though
``d(v, v) = 0 ≤ τ`` — degrees count *other* vertices within τ.
Duplicate points (distance 0) are genuine neighbors.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class ThresholdGraphView:
    """Read-only view of ``G_τ`` induced on a vertex subset.

    Parameters
    ----------
    oracle:
        Object with ``pairwise`` / ``within`` / ``count_within`` (a
        Metric or a Machine).
    vertices:
        Active vertex ids the view is induced on.
    tau:
        Distance threshold (edges where ``d ≤ τ``).
    """

    def __init__(self, oracle, vertices: Iterable[int], tau: float) -> None:
        if tau < 0:
            raise ValueError("threshold must be non-negative")
        self.oracle = oracle
        self.vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        self.tau = float(tau)

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.size)

    def degrees(self, I: Iterable[int] | None = None) -> np.ndarray:
        """Degree of each queried vertex within the active set.

        ``I`` defaults to all active vertices.  Queried ids need not be
        active themselves; active queried ids have their self-count
        removed.
        """
        I = self.vertices if I is None else np.asarray(I, dtype=np.int64).reshape(-1)
        if I.size == 0:
            return np.zeros(0, dtype=np.int64)
        counts = self.oracle.count_within(I, self.vertices, self.tau)
        is_active = np.isin(I, self.vertices)
        return counts - is_active.astype(np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        """Active neighbors of ``v`` (excluding ``v`` itself)."""
        mask = self.oracle.within([v], self.vertices, self.tau)[0]
        nbrs = self.vertices[mask]
        return nbrs[nbrs != v]

    def adjacency(self, I: Iterable[int], J: Iterable[int]) -> np.ndarray:
        """Boolean cross-adjacency (diagonal pairs ``i == j`` masked off)."""
        I = np.asarray(I, dtype=np.int64).reshape(-1)
        J = np.asarray(J, dtype=np.int64).reshape(-1)
        adj = self.oracle.within(I, J, self.tau)
        same = I[:, None] == J[None, :]
        adj[same] = False
        return adj

    def num_edges(self) -> int:
        """Exact edge count of the induced active graph.

        O(|V|²) oracle work — instrumentation only (used by the F3
        experiment), never inside the MPC algorithms.
        """
        V = self.vertices
        if V.size < 2:
            return 0
        deg = self.degrees(V)
        return int(deg.sum()) // 2

    def is_independent(self, S: Iterable[int]) -> bool:
        """True iff ``S`` is pairwise non-adjacent in ``G_τ``."""
        S = np.asarray(S, dtype=np.int64).reshape(-1)
        if S.size < 2:
            return True
        D = self.oracle.pairwise(S, S)
        np.fill_diagonal(D, np.inf)
        return bool(D.min() > self.tau)

    def is_maximal_independent(self, S: Iterable[int]) -> bool:
        """True iff ``S`` is independent and dominates every active vertex."""
        S = np.asarray(S, dtype=np.int64).reshape(-1)
        if not self.is_independent(S):
            return False
        if self.vertices.size == 0:
            return True
        if S.size == 0:
            return False
        dmin = self.oracle.pairwise(self.vertices, S).min(axis=1)
        return bool(np.all(dmin <= self.tau))
