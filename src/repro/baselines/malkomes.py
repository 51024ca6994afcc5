"""Malkomes et al. (NeurIPS 2015): two-round MPC k-center baselines.

* :func:`malkomes_kcenter` — GMM on every machine, GMM on the union at
  the central machine: a 4-approximation in exactly two rounds with
  O(mk) communication.  This is the state of the art the paper's
  Algorithm 5 improves from 4 to 2+ε.
* :func:`malkomes_kcenter_outliers` — machines run GMM with ``k+z``
  points and attach the weight of each coreset point (how many local
  points it is nearest to); the central machine runs the weighted
  Charikar outlier algorithm, a 13-approximation overall.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.baselines.charikar import charikar_kcenter_outliers
from repro.core.gmm import gmm
from repro.metric.base import Metric
from repro.mpc.cluster import MPCCluster
from repro.mpc.message import PointBatch


def malkomes_kcenter(cluster: MPCCluster, k: int) -> Tuple[np.ndarray, float]:
    """Two-round 4-approximation MPC k-center.

    Returns ``(centers, radius)`` with ``radius = r(V, centers)``
    (the radius evaluation costs two additional reporting rounds).
    """
    payloads = {}
    for mach in cluster.machines:
        payloads[mach.id] = PointBatch(gmm(mach, mach.local_ids, k))
    inbox = cluster.gather_to_central(payloads, tag="malkomes/coreset")
    T = np.unique(np.concatenate([msg.payload.ids for msg in inbox]))
    centers = gmm(cluster.central, T, k)

    cluster.broadcast_points_from_central(centers, tag="malkomes/centers")
    r_payloads = {}
    for mach in cluster.machines:
        r_payloads[mach.id] = (
            float(mach.dist_to_set(mach.local_ids, centers).max())
            if mach.local_ids.size
            else 0.0
        )
    inbox = cluster.gather_to_central(r_payloads, tag="malkomes/radius")
    radius = max(float(msg.payload) for msg in inbox)
    return centers, radius


def malkomes_kcenter_outliers(
    cluster: MPCCluster, k: int, z: int
) -> Tuple[np.ndarray, float]:
    """Two-round 13-approximation MPC k-center with ``z`` outliers.

    Returns ``(centers, radius)`` where ``radius`` serves all but ``z``
    points (evaluated over the full input in two reporting rounds).
    """
    payloads = {}
    for mach in cluster.machines:
        T_i = gmm(mach, mach.local_ids, min(k + z, max(1, mach.local_ids.size)))
        if mach.local_ids.size:
            assign = mach.pairwise(mach.local_ids, T_i).argmin(axis=1)
            w = np.bincount(assign, minlength=T_i.size).astype(np.float64)
        else:
            w = np.zeros(T_i.size)
        payloads[mach.id] = PointBatch(T_i, {"w": w})
    inbox = cluster.gather_to_central(payloads, tag="malkomes-z/coreset")

    pieces, weights = [], []
    for msg in inbox:
        pieces.append(msg.payload.ids)
        weights.append(msg.payload.columns["w"])
    T = np.concatenate(pieces)
    W = np.concatenate(weights)
    # collapse duplicate coreset points, summing weights
    T, inv = np.unique(T, return_inverse=True)
    W = np.bincount(inv, weights=W)

    sub = _SubsetMetric(cluster.metric, T)
    local_centers, _ = charikar_kcenter_outliers(sub, min(k, T.size), z, weights=W)
    centers = T[local_centers]

    cluster.broadcast_points_from_central(centers, tag="malkomes-z/centers")
    d_payloads = {}
    for mach in cluster.machines:
        d_payloads[mach.id] = (
            mach.dist_to_set(mach.local_ids, centers)
            if mach.local_ids.size
            else np.zeros(0)
        )
    inbox = cluster.gather_to_central(d_payloads, tag="malkomes-z/dists")
    dmin = np.concatenate([np.asarray(msg.payload, dtype=np.float64) for msg in inbox])
    dmin.sort()
    radius = float(dmin[max(0, dmin.size - z - 1)]) if dmin.size else 0.0
    return centers, radius


class _SubsetMetric(Metric):
    """Metric restricted to an id subset, re-indexed 0..len-1."""

    def __init__(self, inner: Metric, ids: np.ndarray) -> None:
        self.inner = inner
        self.ids = np.asarray(ids, dtype=np.int64)
        self.n = self.ids.size
        self.chunk_budget = inner.chunk_budget

    def point_words(self) -> int:
        return self.inner.point_words()

    def _pairwise_kernel(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        return self.inner._pairwise_kernel(self.ids[I], self.ids[J])

    def _within_kernel(self, I: np.ndarray, J: np.ndarray, tau: float) -> np.ndarray:
        return self.inner._within_kernel(self.ids[I], self.ids[J], tau)
