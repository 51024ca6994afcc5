"""Instrumentation wrappers for distance oracles.

* :class:`CountingOracle` counts individual distance *evaluations*
  (matrix cells), giving the oracle-complexity numbers reported by the
  F2 scaling experiment.
* :class:`CachedOracle` memoizes scalar :meth:`distance` calls, useful
  for algorithms that repeatedly probe the same pairs (e.g. the
  Hochbaum–Shmoys parametric ladder).

Both wrappers are themselves :class:`~repro.metric.base.Metric`
instances, so they compose (``CountingOracle(CachedOracle(m))``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.metric.base import Metric


class CountingOracle(Metric):
    """Transparent wrapper that counts distance evaluations."""

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.n = inner.n
        self.chunk_budget = inner.chunk_budget
        self.evaluations = 0
        self.calls = 0

    def point_words(self) -> int:
        return self.inner.point_words()

    def reset(self) -> None:
        """Zero the counters."""
        self.evaluations = 0
        self.calls = 0

    def _pairwise_kernel(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        self.calls += 1
        self.evaluations += int(I.size) * int(J.size)
        return self.inner._pairwise_kernel(I, J)

    def _within_kernel(self, I: np.ndarray, J: np.ndarray, tau: float) -> np.ndarray:
        # charged exactly like the distance block it decides
        self.calls += 1
        self.evaluations += int(I.size) * int(J.size)
        return self.inner._within_kernel(I, J, tau)


class CachedOracle(Metric):
    """Memoizes scalar pair distances; matrix calls pass through.

    The cache key is the unordered pair, relying on symmetry of the
    underlying metric.
    """

    def __init__(self, inner: Metric, max_entries: int = 1_000_000) -> None:
        self.inner = inner
        self.n = inner.n
        self.chunk_budget = inner.chunk_budget
        self.max_entries = max_entries
        self._cache: Dict[Tuple[int, int], float] = {}
        self.hits = 0
        self.misses = 0

    def point_words(self) -> int:
        return self.inner.point_words()

    def distance(self, i: int, j: int) -> float:
        key = (i, j) if i <= j else (j, i)
        val = self._cache.get(key)
        if val is not None:
            self.hits += 1
            return val
        self.misses += 1
        val = self.inner.distance(i, j)
        if len(self._cache) < self.max_entries:
            self._cache[key] = val
        return val

    def _pairwise_kernel(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        return self.inner._pairwise_kernel(I, J)

    def _within_kernel(self, I: np.ndarray, J: np.ndarray, tau: float) -> np.ndarray:
        return self.inner._within_kernel(I, J, tau)
