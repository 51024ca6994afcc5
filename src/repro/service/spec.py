"""Job specification: the validated description of one solver run.

A :class:`JobSpec` is what travels in a ``POST /jobs`` body and what the
worker pool executes.  Its :meth:`~JobSpec.cache_key` is the result
cache's identity — ``(dataset fingerprint, algorithm, and every
result-relevant parameter)``.  The execution backend and the timeout are
deliberately *excluded*: the PR-2 determinism guarantee makes results
bit-identical across ``serial``/``process``/``remote``, so a
result computed on any backend serves submissions targeting every
backend — a spec may still pin ``backend=`` (e.g. ``'remote'``) to
choose where it runs without changing its cache identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.api import SOLVERS

#: solvers that accept an ``outliers`` budget
OUTLIER_SOLVERS = ("charikar_outliers", "malkomes_outliers")

#: partition strategies accepted by the facade
PARTITIONS = ("random", "block", "skewed")

#: analysis-constant presets understood by the runner
CONSTANT_PRESETS = ("practical", "paper")

#: tie-breaking modes accepted by the trim primitive (repro.core.trim)
TRIM_MODES = ("random", "id", "paper")


@dataclass
class JobSpec:
    """Parameters of one clustering job.

    ``dataset`` is a registry id (``ds-…``).  ``customers`` and
    ``suppliers`` are only meaningful (and then required) for
    ``algorithm='ksupplier'``.
    """

    algorithm: str
    dataset: str
    k: int = 1
    eps: float = 0.1
    machines: Optional[int] = None
    seed: int = 0
    partition: str = "random"
    trim_mode: str = "random"
    constants: str = "practical"
    customers: Optional[Sequence[int]] = None
    suppliers: Optional[Sequence[int]] = None
    #: outlier budget; only meaningful for the outlier-capable solvers
    outliers: Optional[int] = None
    #: re-solve an append-chained dataset version from its parent's
    #: solution (kcenter/diversity only); warm results legitimately
    #: differ from cold ones, so this *is* part of :meth:`cache_key`
    warm_start: bool = False
    #: execution backend override for this job (``None`` = the
    #: manager's default); excluded from :meth:`cache_key` — every
    #: backend is bit-identical, so results are shared across them
    backend: Optional[str] = None
    #: wall-clock budget; checked at MPC round granularity
    timeout_s: Optional[float] = None
    #: per-job retry budget; ``None`` defers to the manager's policy
    max_retries: Optional[int] = None
    #: free-form caller annotations, echoed back in job summaries
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.algorithm = str(self.algorithm).lower()
        if self.algorithm not in SOLVERS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{', '.join(sorted(SOLVERS))}"
            )
        self.k = int(self.k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        self.eps = float(self.eps)
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.machines is not None:
            self.machines = int(self.machines)
            if self.machines < 1:
                raise ValueError(f"machines must be >= 1, got {self.machines}")
        self.seed = int(self.seed)
        if self.partition not in PARTITIONS:
            raise ValueError(
                f"unknown partition {self.partition!r}; expected one of "
                f"{', '.join(PARTITIONS)}"
            )
        if self.trim_mode not in TRIM_MODES:
            raise ValueError(
                f"unknown trim_mode {self.trim_mode!r}; expected one of "
                f"{', '.join(TRIM_MODES)}"
            )
        if self.constants not in CONSTANT_PRESETS:
            raise ValueError(
                f"unknown constants preset {self.constants!r}; expected one of "
                f"{', '.join(CONSTANT_PRESETS)}"
            )
        if self.backend is not None:
            from repro.mpc.executor import BACKENDS

            self.backend = str(self.backend).lower()
            if self.backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {self.backend!r}; expected one of "
                    f"{', '.join(BACKENDS)}"
                )
        if self.timeout_s is not None:
            self.timeout_s = float(self.timeout_s)
            if self.timeout_s <= 0:
                raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries is not None:
            self.max_retries = int(self.max_retries)
            if self.max_retries < 0:
                raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.algorithm == "ksupplier":
            if self.customers is None or self.suppliers is None:
                raise ValueError("ksupplier jobs need customer and supplier id lists")
            self.customers = tuple(int(i) for i in self.customers)
            self.suppliers = tuple(int(i) for i in self.suppliers)
        elif self.customers is not None or self.suppliers is not None:
            raise ValueError(
                f"customers/suppliers only apply to ksupplier jobs, not {self.algorithm!r}"
            )
        if self.outliers is not None:
            if self.algorithm not in OUTLIER_SOLVERS:
                raise ValueError(
                    f"outliers only applies to "
                    f"{', '.join(OUTLIER_SOLVERS)} jobs, not {self.algorithm!r}"
                )
            self.outliers = int(self.outliers)
            if self.outliers < 0:
                raise ValueError(f"outliers must be >= 0, got {self.outliers}")
        self.warm_start = bool(self.warm_start)
        if self.warm_start and self.algorithm not in ("kcenter", "diversity"):
            raise ValueError(
                f"warm_start only applies to kcenter and diversity jobs, "
                f"not {self.algorithm!r}"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Build from a JSON body, rejecting unknown fields loudly."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown job field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        if "algorithm" not in payload or "dataset" not in payload:
            raise ValueError("a job needs at least 'algorithm' and 'dataset'")
        return cls(**payload)

    def to_dict(self) -> dict:
        """JSON-safe echo of the spec."""
        out = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "k": self.k,
            "eps": self.eps,
            "machines": self.machines,
            "seed": self.seed,
            "partition": self.partition,
            "trim_mode": self.trim_mode,
            "constants": self.constants,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
        }
        if self.backend is not None:
            out["backend"] = self.backend
        if self.customers is not None:
            out["customers"] = list(self.customers)
            out["suppliers"] = list(self.suppliers)
        if self.outliers is not None:
            out["outliers"] = self.outliers
        if self.warm_start:
            out["warm_start"] = True
        if self.tags:
            out["tags"] = dict(self.tags)
        return out

    def cache_key(self, fingerprint: str) -> Tuple:
        """Result-cache identity for this spec on the given dataset.

        Backend-irrelevant by construction: neither the execution
        backend nor the timeout/retry-budget/tags participate —
        recovered runs are bit-identical to undisturbed ones, so the
        retry knobs cannot change the result.
        """
        return (
            fingerprint,
            self.algorithm,
            self.k,
            self.eps,
            self.machines,
            self.seed,
            self.partition,
            self.trim_mode,
            self.constants,
            self.customers,
            self.suppliers,
            self.outliers,
            self.warm_start,
        )
