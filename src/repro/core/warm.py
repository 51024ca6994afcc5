"""Warm-start state for incremental re-solves.

The paper's coreset stage (lines 1–3 of Algorithms 2 and 5) is
composable: each machine runs GMM locally, the central machine unions
the local outputs and runs GMM again.  That composition is exactly what
makes an *incremental* dataset cheap to re-solve: when a dataset is an
append-chained child (parent points plus a delta, see
:meth:`repro.service.datasets.DatasetRegistry.append`), the parent's
final centers already summarize the first ``base_n`` points.  A
warm-started coreset therefore runs the per-machine GMM only over each
machine's share of the *delta*, ships the parent centers alongside the
local outputs, and lets the central GMM re-select over the union — the
threshold ladder afterwards is unchanged and still certifies against
the full child dataset.

The saving is the per-machine GMM work over the old points:
``O(k · base_n)`` oracle evaluations skipped, which dominates when the
delta is small relative to the accumulated history.  The trade-off is
that the warm solution is *not* bit-identical to a cold solve of the
child (the coreset candidates differ); the drift report attached to
warm job payloads quantifies exactly how far the two drift apart.
Warm results remain deterministic: for a fixed seed and chain they are
bit-identical across serial/process/remote backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WarmStart:
    """Initial GMM state carried from a parent dataset version.

    ``base_n`` is the parent's point count: ids ``< base_n`` in the
    child dataset are exactly the parent's points (appends concatenate,
    never reorder).  ``centers`` are the parent solution's point ids,
    and ``objective`` its radius (k-center) or diversity value — kept
    so the drift report can be computed without re-resolving the
    parent.
    """

    base_n: int
    centers: np.ndarray
    objective: float = 0.0

    def __post_init__(self) -> None:
        centers = np.unique(np.asarray(self.centers, dtype=np.int64))
        if centers.size == 0:
            raise ValueError("warm start requires at least one parent center")
        if int(self.base_n) <= 0:
            raise ValueError("warm start base_n must be positive")
        if centers.min() < 0 or centers.max() >= int(self.base_n):
            raise ValueError(
                "warm-start centers must be parent point ids in [0, base_n)"
            )
        object.__setattr__(self, "base_n", int(self.base_n))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "objective", float(self.objective))

    def delta_ids(self, local_ids: np.ndarray) -> np.ndarray:
        """The subset of ``local_ids`` that arrived after the parent."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        return local_ids[local_ids >= self.base_n]

    def local_centers(self, local_ids: np.ndarray) -> np.ndarray:
        """The parent centers this machine owns (ids ∩ centers)."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        return np.intersect1d(self.centers, local_ids)


__all__ = ["WarmStart"]
