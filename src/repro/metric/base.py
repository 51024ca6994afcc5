"""Abstract distance oracle.

The paper assumes "the distance between any two points in the space can
be obtained in O(1) time" (Section 2).  :class:`Metric` is that oracle:
subclasses implement one vectorized kernel, :meth:`_pairwise_kernel`,
and inherit id-based helpers used throughout the algorithms:

* :meth:`pairwise` — full cross-distance matrix between two id sets;
* :meth:`dist_to_set` — for each query id, distance to the nearest id in
  a target set (the ``d(p, T)`` of GMM);
* :meth:`radius` — the paper's ``r(X, Y) = max_{x∈X} d(x, Y)``;
* :meth:`diversity` — ``div(S)``, the minimum pairwise distance;
* :meth:`within` — threshold-graph adjacency queries for ``G_τ``;
* :meth:`count_within` — threshold-graph degree counts.

The last two decide ``d(i, j) ≤ τ`` through a second hook,
:meth:`_within_kernel`, which returns the boolean block.  Its default is
``_pairwise_kernel(I, J) <= tau``; a subclass may override it with a
faster exact test (``EuclideanMetric`` compares squared distances), as
long as every cell comes out as the default would decide it.

All helpers chunk their work so that no intermediate matrix exceeds
``chunk_budget`` entries, keeping the simulator usable at n ≈ 10⁵
without materializing an n×n matrix (the guides' "be easy on the
memory" rule).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

#: Maximum number of matrix entries materialized by one kernel call.
_DEFAULT_CHUNK_BUDGET = 4_000_000


def _as_ids(ids: Iterable[int]) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


class Metric(ABC):
    """Distance oracle over a fixed ground set of ``n`` points.

    Subclasses must set :attr:`n` (ground-set size) before use and
    implement :meth:`_pairwise_kernel`.
    """

    #: Number of points in the ground set.
    n: int

    chunk_budget: int = _DEFAULT_CHUNK_BUDGET

    # -- kernel to be provided by subclasses --------------------------------

    @abstractmethod
    def _pairwise_kernel(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Cross-distance matrix of shape ``(len(I), len(J))``.

        ``I`` and ``J`` are validated int64 id arrays.  Implementations
        must be pure (no caching of ids) and vectorized.
        """

    def _within_kernel(self, I: np.ndarray, J: np.ndarray, tau: float) -> np.ndarray:
        """Boolean block ``d(i, j) <= tau`` of shape ``(len(I), len(J))``.

        One kernel call over the same ids as :meth:`_pairwise_kernel`;
        an override must decide every cell exactly as this default does.
        """
        return self._pairwise_kernel(I, J) <= tau

    # -- words accounting -----------------------------------------------------

    def point_words(self) -> int:
        """Words to ship one point of this space over the network.

        Coordinate metrics return their dimensionality; oracle-only
        metrics (explicit matrix, graph) return 1 (an id suffices,
        because every machine can evaluate the oracle)."""
        return 1

    # -- validation -----------------------------------------------------------

    def _check(self, ids: np.ndarray) -> np.ndarray:
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise IndexError(
                f"point id out of range [0, {self.n}) : "
                f"min={ids.min() if ids.size else None}, max={ids.max() if ids.size else None}"
            )
        return ids

    # -- public id-based API ---------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """Distance between two points by id."""
        out = self._pairwise_kernel(
            self._check(np.array([i], dtype=np.int64)),
            self._check(np.array([j], dtype=np.int64)),
        )
        return float(out[0, 0])

    def pairwise(self, I: Iterable[int], J: Iterable[int]) -> np.ndarray:
        """Cross-distance matrix between two id collections."""
        I = self._check(_as_ids(I))
        J = self._check(_as_ids(J))
        if I.size == 0 or J.size == 0:
            return np.zeros((I.size, J.size), dtype=np.float64)
        return self._pairwise_kernel(I, J)

    def dist_to_set(self, I: Iterable[int], T: Iterable[int]) -> np.ndarray:
        """``d(p, T)`` for each ``p`` in ``I``; ``inf`` if ``T`` is empty.

        Work is chunked over ``I`` so at most :attr:`chunk_budget`
        matrix entries exist at a time.
        """
        I = self._check(_as_ids(I))
        T = self._check(_as_ids(T))
        if T.size == 0:
            return np.full(I.size, np.inf, dtype=np.float64)
        if I.size == 0:
            return np.zeros(0, dtype=np.float64)
        out = np.empty(I.size, dtype=np.float64)
        step = max(1, self.chunk_budget // max(1, T.size))
        for lo in range(0, I.size, step):
            hi = min(I.size, lo + step)
            out[lo:hi] = self._pairwise_kernel(I[lo:hi], T).min(axis=1)
        return out

    def radius(self, X: Iterable[int], Y: Iterable[int]) -> float:
        """The paper's ``r(X, Y) = max_{x in X} d(x, Y)``.

        Returns 0.0 when ``X`` is empty and ``inf`` when ``Y`` is empty
        but ``X`` is not.
        """
        X = _as_ids(X)
        if X.size == 0:
            return 0.0
        return float(self.dist_to_set(X, Y).max())

    def diversity(self, S: Iterable[int]) -> float:
        """``div(S)``: minimum pairwise distance; ``inf`` for |S| < 2."""
        S = self._check(_as_ids(S))
        if S.size < 2:
            return float("inf")
        best = np.inf
        step = max(1, self.chunk_budget // max(1, S.size))
        for lo in range(0, S.size, step):
            hi = min(S.size, lo + step)
            block = self._pairwise_kernel(S[lo:hi], S)
            # mask the diagonal entries that fall inside this block
            for r in range(lo, hi):
                block[r - lo, r] = np.inf
            best = min(best, float(block.min()))
        return best

    def within(self, I: Iterable[int], J: Iterable[int], tau: float) -> np.ndarray:
        """Boolean matrix: ``d(i, j) <= tau`` — adjacency in ``G_τ``.

        Note the threshold graph includes self-loops here; callers that
        need simple-graph semantics mask the diagonal themselves.
        """
        I = self._check(_as_ids(I))
        J = self._check(_as_ids(J))
        if I.size == 0 or J.size == 0:
            return np.zeros((I.size, J.size), dtype=bool)
        return self._within_kernel(I, J, tau)

    def count_within(self, I: Iterable[int], J: Iterable[int], tau: float) -> np.ndarray:
        """For each ``i`` in ``I``: ``|{j in J : d(i,j) <= tau}|``.

        Chunked; used for threshold-graph degree counting.  Includes
        ``i`` itself when ``i ∈ J`` — callers subtract self-counts.
        """
        I = self._check(_as_ids(I))
        J = self._check(_as_ids(J))
        if I.size == 0:
            return np.zeros(0, dtype=np.int64)
        if J.size == 0:
            return np.zeros(I.size, dtype=np.int64)
        out = np.empty(I.size, dtype=np.int64)
        step = max(1, self.chunk_budget // max(1, J.size))
        for lo in range(0, I.size, step):
            hi = min(I.size, lo + step)
            out[lo:hi] = self._within_kernel(I[lo:hi], J, tau).sum(axis=1)
        return out

    def argmax_dist_to_set(self, I: Iterable[int], T: Iterable[int]) -> tuple[int, float]:
        """Id in ``I`` furthest from ``T`` and its distance (GMM's step)."""
        I = _as_ids(I)
        if I.size == 0:
            raise ValueError("empty candidate set")
        d = self.dist_to_set(I, T)
        pos = int(np.argmax(d))
        return int(I[pos]), float(d[pos])
