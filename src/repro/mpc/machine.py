"""A simulated MPC machine.

A :class:`Machine` owns a partition of the input ids, a *known-point*
mask (its partition plus every point it has received), and a private
RNG stream spawned deterministically from the cluster seed.  Inside an
:class:`~repro.mpc.cluster.MPCCluster` the mask is a row of the
cluster's ``m × n`` known array: the cluster teaches received points
and measures memory for all machines at once, while the machine keeps
reading and checking its own row.

All local distance computation goes through the machine's metric
helpers (:meth:`pairwise`, :meth:`dist_to_set`, …), which in strict mode
verify that every id involved is known to this machine — this is what
catches algorithms that accidentally peek at remote data.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import UnknownPointError
from repro.metric.base import Metric


class Machine:
    """One simulated machine.

    Parameters
    ----------
    machine_id:
        Index of this machine, ``0 .. m-1`` (machine 0 doubles as the
        *central machine* in the paper's algorithms).
    metric:
        The shared distance oracle (read-only; communication of point
        data is what's accounted, not the oracle object itself).
    local_ids:
        The ids of this machine's input partition.
    rng:
        Private random generator for this machine.
    strict:
        Enforce known-point discipline on every distance computation.
    """

    def __init__(
        self,
        machine_id: int,
        metric: Metric,
        local_ids: np.ndarray,
        rng: np.random.Generator,
        strict: bool = True,
    ) -> None:
        self.id = int(machine_id)
        self.metric = metric
        self.local_ids = np.asarray(local_ids, dtype=np.int64).copy()
        self.rng = rng
        self.strict = strict
        self._known = np.zeros(metric.n, dtype=bool)
        self._known[self.local_ids] = True

    # -- known-point bookkeeping ------------------------------------------------

    @property
    def known_count(self) -> int:
        """Number of points this machine can currently touch."""
        return int(self._known.sum())

    def known_words(self) -> int:
        """Approximate words of point data held (memory accounting)."""
        return self.known_count * self.metric.point_words()

    def knows(self, ids: Iterable[int]) -> bool:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        return bool(self._known[ids].all()) if ids.size else True

    def learn(self, ids: Iterable[int]) -> None:
        """Mark points as known (called by the cluster on delivery)."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        self._known[ids] = True

    def require_known(self, ids: Iterable[int]) -> None:
        if not self.strict:
            return
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and ids.min() < 0:
            # negative ids would silently wrap in the mask lookup
            raise UnknownPointError(self.id, int(ids[ids < 0][0]))
        mask = self._known[ids]
        if not mask.all():
            bad = int(ids[~mask][0])
            raise UnknownPointError(self.id, bad)

    # -- local metric helpers (strict-checked) -----------------------------------

    def pairwise(self, I: Iterable[int], J: Iterable[int]) -> np.ndarray:
        self.require_known(I)
        self.require_known(J)
        return self.metric.pairwise(I, J)

    def dist_to_set(self, I: Iterable[int], T: Iterable[int]) -> np.ndarray:
        self.require_known(I)
        self.require_known(T)
        return self.metric.dist_to_set(I, T)

    def radius(self, X: Iterable[int], Y: Iterable[int]) -> float:
        self.require_known(X)
        self.require_known(Y)
        return self.metric.radius(X, Y)

    def diversity(self, S: Iterable[int]) -> float:
        self.require_known(S)
        return self.metric.diversity(S)

    def count_within(self, I: Iterable[int], J: Iterable[int], tau: float) -> np.ndarray:
        self.require_known(I)
        self.require_known(J)
        return self.metric.count_within(I, J, tau)

    def within(self, I: Iterable[int], J: Iterable[int], tau: float) -> np.ndarray:
        self.require_known(I)
        self.require_known(J)
        return self.metric.within(I, J, tau)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(id={self.id}, |local|={self.local_ids.size}, known={self.known_count})"
