"""Result records returned by the MPC algorithms.

Every record carries the solution, the quantities the theorems speak
about (size, radius/diversity, approximation parameter), and the MPC
accounting snapshot (rounds, communication) so experiments read their
numbers straight off the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np


class _SerializableResult:
    """Mixin: dataclass → plain dict (numpy converted), for
    :mod:`repro.analysis.io` persistence."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, (np.integer, np.floating, np.bool_)):
                value = value.item()
            out[f.name] = value
        out["size"] = self.size
        return out


@dataclass
class CoresetResult(_SerializableResult):
    """Output of the two-round coreset stages (lines 1–3 of
    Algorithms 2 and 5).

    ``ids`` is the k-subset ``Q`` and ``value`` the certified
    4-approximation ``r`` (a radius for k-center, a diversity for
    diversity maximization — see :attr:`kind`).
    """

    ids: np.ndarray
    value: float
    k: int
    #: which problem the value certifies: 'kcenter' or 'diversity'
    kind: str = "kcenter"
    rounds: int = 0

    @property
    def size(self) -> int:
        return int(self.ids.size)


@dataclass
class MISResult(_SerializableResult):
    """Output of the k-bounded MIS (Algorithm 4).

    The contract of Definition 1: ``ids`` is an independent set in
    ``G_τ``, and either it is maximal (``maximal=True``, size ≤ k) or it
    has size exactly ``k``.
    """

    ids: np.ndarray
    tau: float
    k: int
    maximal: bool
    #: which exit fired: 'maximal', 'size_k_central', 'size_k_pruning',
    #: 'size_k_light_path'
    terminated_via: str
    rounds: int
    #: active-graph edge counts per outer round (instrumentation only)
    edge_trace: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(self.ids.size)


@dataclass
class DiversityResult(_SerializableResult):
    """Output of MPC k-diversity maximization (Algorithm 2)."""

    ids: np.ndarray
    diversity: float
    k: int
    epsilon: float
    #: the 4-approximation value r from lines 1–3
    coreset_value: float
    rounds: int
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.ids.size)


@dataclass
class ClusteringResult(_SerializableResult):
    """Output of MPC k-center (Algorithm 5)."""

    centers: np.ndarray
    radius: float
    k: int
    epsilon: float
    #: the certified threshold τ_j (radius ≤ τ_j by construction)
    tau: float
    #: the 4-approximation value r from lines 1–3
    coreset_value: float
    rounds: int
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.centers.size)


@dataclass
class SupplierResult(_SerializableResult):
    """Output of MPC k-supplier (Algorithm 6)."""

    suppliers: np.ndarray
    radius: float
    k: int
    epsilon: float
    #: the 9-approximation value r from lines 1–3
    coreset_value: float
    #: the customer pivots M_j whose nearest suppliers were opened
    pivots: Optional[np.ndarray]
    rounds: int
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.suppliers.size)
