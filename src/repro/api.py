"""Unified solver facade — one call from raw points to a result.

The paper's algorithms are driver programs over an
:class:`~repro.mpc.cluster.MPCCluster`; assembling metric + partition +
executor by hand is flexible but verbose.  This module is the
one-stop entry point::

    import numpy as np
    from repro import solve_kcenter

    points = np.random.default_rng(0).normal(size=(10_000, 2))
    res = solve_kcenter(points, k=25, eps=0.1, backend="process")
    res.centers, res.radius, res.rounds, res.stats

Every solver accepts the same assembly keywords:

``metric``
    A metric name (``'euclidean'``, ``'manhattan'``, ``'chebyshev'``,
    ``'angular'``/``'cosine'``, ``'hamming'``) applied to ``points``,
    or a ready-made :class:`~repro.metric.base.Metric` instance (then
    ``points`` must be ``None``).
``machines``
    Number of simulated MPC machines (default
    :data:`DEFAULT_MACHINES`, capped at ``n``).
``backend``
    Compute backend: ``'serial'``, ``'thread'``, ``'process'``, or
    ``'remote'`` (socket-connected worker agents, see
    :mod:`repro.mpc.remote`) — or any
    :class:`~repro.mpc.executor.ExecutionBackend` instance (see
    :mod:`repro.mpc.executor`).
``seed``
    Master RNG seed; ``None`` means 0.  Same seed ⇒ bit-identical
    results on every backend.
``partition``
    Partitioner name (``'random'``, ``'block'``, ``'skewed'``) or an
    explicit list of id arrays.  The seeded-``random`` default matches
    the CLI, so library calls and ``repro <cmd>`` runs coincide.
``faults``
    Optional :class:`~repro.faults.FaultPlan` (or any spec its
    :meth:`~repro.faults.FaultPlan.from_spec` accepts) for
    deterministic fault injection; recovery keeps results bit-identical
    to the fault-free run (see ``docs/fault_tolerance.md``).

The legacy entry points (:func:`repro.mpc_kcenter` and friends, driving
an explicitly-built cluster) remain fully supported; the facade
delegates to them, so the two can never drift.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.baselines import (
    charikar_kcenter_outliers,
    ene_sampling_kcenter,
    gonzalez_diversity,
    gonzalez_kcenter,
    hochbaum_shmoys_kcenter,
    indyk_diversity,
    malkomes_kcenter,
    malkomes_kcenter_outliers,
    streaming_kcenter,
)
from repro.constants import TheoryConstants
from repro.core.diversity import mpc_diversity
from repro.core.kcenter import mpc_kcenter
from repro.core.ksupplier import mpc_ksupplier
from repro.core.results import ClusteringResult, DiversityResult, SupplierResult
from repro.metric.base import Metric
from repro.metric.cosine import AngularMetric
from repro.metric.euclidean import EuclideanMetric
from repro.metric.hamming import HammingMetric
from repro.metric.lp import ChebyshevMetric, ManhattanMetric
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import ExecutionBackend, get_executor
from repro.mpc.limits import Limits
from repro.mpc.partition import get_partitioner
from repro.obs.metrics import MetricsObserver, MetricsRegistry, default_registry
from repro.obs.tracing import TraceContext, current_trace

#: default machine count when ``machines=None`` (matches the CLI default)
DEFAULT_MACHINES = 8

_METRICS = {
    "euclidean": EuclideanMetric,
    "l2": EuclideanMetric,
    "manhattan": ManhattanMetric,
    "l1": ManhattanMetric,
    "chebyshev": ChebyshevMetric,
    "linf": ChebyshevMetric,
    "angular": AngularMetric,
    "cosine": AngularMetric,
    "hamming": HammingMetric,
}

MetricSpec = Union[str, Metric]
PartitionSpec = Union[str, List[np.ndarray], None]


def make_metric(points, metric: MetricSpec = "euclidean") -> Metric:
    """Resolve a metric spec: a name applied to ``points``, or a
    pass-through :class:`Metric` instance (``points`` must then be
    ``None``)."""
    if isinstance(metric, Metric):
        if points is not None:
            raise ValueError(
                "pass either raw points with a metric name, or a Metric "
                "instance with points=None — not both"
            )
        return metric
    try:
        cls = _METRICS[str(metric).lower()]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of "
            f"{', '.join(sorted(_METRICS))} or a Metric instance"
        ) from None
    if points is None:
        raise ValueError(f"metric {metric!r} needs a points array")
    return cls(points)


def make_executor(backend: Union[str, ExecutionBackend] = "serial",
                  max_workers: Optional[int] = None,
                  workers=None):
    """Resolve a backend spec into an executor (see
    :func:`repro.mpc.executor.get_executor`).

    ``workers`` is the remote worker-agent address spec
    (``"HOST:PORT,HOST:PORT"`` or a list of addresses) consumed by the
    ``'remote'`` backend; other backends ignore it.
    """
    return get_executor(backend, max_workers=max_workers, workers=workers)


def build_cluster(
    points=None,
    *,
    metric: MetricSpec = "euclidean",
    machines: Optional[int] = None,
    seed: Optional[int] = None,
    partition: PartitionSpec = "random",
    backend: Union[str, ExecutionBackend] = "serial",
    strict: bool = True,
    limits: Optional[Limits] = None,
    max_workers: Optional[int] = None,
    workers=None,
    faults=None,
    trace: Optional[TraceContext] = None,
) -> MPCCluster:
    """Assemble an :class:`MPCCluster` the way the solvers do.

    Exposed so advanced callers (and the CLI) can interpose — wrap the
    metric in a :class:`~repro.metric.oracle.CountingOracle`, attach
    observers — and still hand the cluster back to a ``solve_*`` call
    via its ``cluster=`` parameter.

    ``trace`` installs a :class:`~repro.obs.tracing.TraceContext` on
    the cluster's observer hub: phase spans (and, on the process
    backend, forked chunk spans) get deterministic trace/span ids under
    it.  Defaults to the ambient context
    (:func:`~repro.obs.tracing.current_trace`), so a cluster built
    inside ``with use_trace(ctx):`` joins that request's trace without
    any explicit plumbing.
    """
    resolved = make_metric(points, metric)
    seed = 0 if seed is None else int(seed)
    m = DEFAULT_MACHINES if machines is None else int(machines)
    m = max(1, min(m, resolved.n))
    if partition is None:
        partition = "random"
    if isinstance(partition, str):
        parts = get_partitioner(partition)(resolved.n, m, np.random.default_rng(seed))
    else:
        parts = list(partition)
    cluster = MPCCluster(
        resolved,
        m,
        partition=parts,
        seed=seed,
        strict=strict,
        limits=limits,
        executor=make_executor(backend, max_workers=max_workers, workers=workers),
        faults=faults,
    )
    resolved_trace = trace if trace is not None else current_trace()
    if resolved_trace is not None:
        cluster.obs.set_trace(resolved_trace)
    return cluster


def metrics_snapshot() -> dict:
    """JSON-safe snapshot of the process-global metrics registry.

    Every facade ``solve_*`` call feeds the registry natively (MPC
    rounds/words, per-phase durations, oracle-call deltas, fault
    injections/recoveries, per-solver run counts and latency); this is
    the programmatic scrape.  Counter values are bit-reproducible for a
    fixed seed; duration histograms are wall-clock.  See
    ``docs/metrics.md`` for the metric catalogue.
    """
    return default_registry().snapshot()


def metrics_reset() -> None:
    """Zero every value in the process-global metrics registry (metric
    registrations — names, labels, bucket bounds — are kept)."""
    default_registry().reset()


def _observed_solve(algorithm: str, cluster: MPCCluster, call: Callable,
                    owns_executor: bool = False,
                    registry: Optional[MetricsRegistry] = None):
    """Run one solver call with a metrics observer attached.

    The observer is attached for exactly the duration of the call, so
    pre-assembled clusters (``cluster=``) are instrumented identically
    to facade-assembled ones and repeated solves never stack observers.
    With ``owns_executor`` (the facade built the executor itself) the
    executor is shut down when the call ends, raised or not, so no
    worker process outlives the solve.
    """
    registry = registry if registry is not None else default_registry()
    observer = MetricsObserver(registry)
    registry.counter(
        "repro_solver_runs_total", "facade solver calls started",
        labels=("algorithm",),
    ).labels(algorithm).inc()
    cluster.obs.add(observer)
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        cluster.obs.remove(observer)
        if owns_executor:
            cluster.executor.shutdown()
    registry.histogram(
        "repro_solver_latency_seconds",
        "wall-clock per completed facade solver call", labels=("algorithm",),
    ).labels(algorithm).observe(time.perf_counter() - t0)
    return result


def solve_kcenter(
    points=None,
    k: int = 1,
    *,
    metric: MetricSpec = "euclidean",
    machines: Optional[int] = None,
    eps: float = 0.1,
    backend: Union[str, ExecutionBackend] = "serial",
    seed: Optional[int] = None,
    partition: PartitionSpec = "random",
    constants: Optional[TheoryConstants] = None,
    trim_mode: str = "random",
    limits: Optional[Limits] = None,
    cluster: Optional[MPCCluster] = None,
    faults=None,
    warm_start=None,
) -> ClusteringResult:
    """(2+ε)-approximate MPC k-center over raw points (Algorithm 5).

    Pass ``cluster=`` to solve on a pre-assembled deployment (every
    other assembly keyword must then stay at its default).  Pass
    ``warm_start=`` (a :class:`repro.core.WarmStart`) to re-solve an
    append-grown dataset from a parent version's centers — see
    ``docs/streaming.md``.
    """
    cluster, owned = _resolve_cluster(
        cluster, points, metric, machines, seed, partition, backend, limits, faults
    )
    return _observed_solve(
        "kcenter", cluster,
        lambda: mpc_kcenter(cluster, k, epsilon=eps, constants=constants,
                            trim_mode=trim_mode, warm_start=warm_start),
        owned,
    )


def solve_diversity(
    points=None,
    k: int = 2,
    *,
    metric: MetricSpec = "euclidean",
    machines: Optional[int] = None,
    eps: float = 0.1,
    backend: Union[str, ExecutionBackend] = "serial",
    seed: Optional[int] = None,
    partition: PartitionSpec = "random",
    constants: Optional[TheoryConstants] = None,
    trim_mode: str = "random",
    limits: Optional[Limits] = None,
    cluster: Optional[MPCCluster] = None,
    faults=None,
    warm_start=None,
) -> DiversityResult:
    """(2+ε)-approximate MPC k-diversity maximization (Algorithm 2).

    ``warm_start=`` re-solves an append-grown dataset from a parent
    version's solution — see ``docs/streaming.md``.
    """
    cluster, owned = _resolve_cluster(
        cluster, points, metric, machines, seed, partition, backend, limits, faults
    )
    return _observed_solve(
        "diversity", cluster,
        lambda: mpc_diversity(cluster, k, epsilon=eps, constants=constants,
                              trim_mode=trim_mode, warm_start=warm_start),
        owned,
    )


def solve_ksupplier(
    points=None,
    customers: Optional[Iterable[int]] = None,
    suppliers: Optional[Iterable[int]] = None,
    k: int = 1,
    *,
    metric: MetricSpec = "euclidean",
    machines: Optional[int] = None,
    eps: float = 0.1,
    backend: Union[str, ExecutionBackend] = "serial",
    seed: Optional[int] = None,
    partition: PartitionSpec = "random",
    constants: Optional[TheoryConstants] = None,
    trim_mode: str = "random",
    limits: Optional[Limits] = None,
    cluster: Optional[MPCCluster] = None,
    faults=None,
) -> SupplierResult:
    """(3+ε)-approximate MPC k-supplier (Algorithm 6).

    ``customers`` and ``suppliers`` are disjoint id subsets of the
    point set (row indices of ``points``).
    """
    if customers is None or suppliers is None:
        raise ValueError("solve_ksupplier needs customer and supplier id sets")
    cluster, owned = _resolve_cluster(
        cluster, points, metric, machines, seed, partition, backend, limits, faults
    )
    return _observed_solve(
        "ksupplier", cluster,
        lambda: mpc_ksupplier(cluster, customers, suppliers, k, epsilon=eps,
                              constants=constants, trim_mode=trim_mode),
        owned,
    )


def _resolve_cluster(
    cluster: Optional[MPCCluster],
    points,
    metric: MetricSpec,
    machines: Optional[int],
    seed: Optional[int],
    partition: PartitionSpec,
    backend: Union[str, ExecutionBackend],
    limits: Optional[Limits],
    faults=None,
) -> tuple:
    """``(cluster, owns_executor)``: the caller's cluster, or one built
    here — whose executor the solve then owns when ``backend`` was a
    name rather than a caller's executor instance."""
    if cluster is not None:
        if points is not None or isinstance(metric, Metric):
            raise ValueError("pass either cluster= or points/metric, not both")
        if faults is not None:
            raise ValueError(
                "pass either cluster= or faults=, not both — give the plan "
                "to build_cluster(faults=...) when pre-assembling"
            )
        return cluster, False
    built = build_cluster(
        points,
        metric=metric,
        machines=machines,
        seed=seed,
        partition=partition,
        backend=backend,
        limits=limits,
        faults=faults,
    )
    return built, isinstance(backend, str)


def _baseline_solver(name: str, kind: str, run: Callable, doc: str):
    """Build a facade entry point around one ``repro.baselines`` comparator.

    ``run(cluster, k, outliers)`` executes the baseline and returns
    ``(ids, value)``; ``kind`` says whether ``value`` is a k-center
    radius or a diversity.  The wrapper accepts the full facade keyword
    surface — ``eps``/``constants``/``trim_mode`` are taken for
    interface parity (the baselines have no such knobs) so the service
    runner dispatches every :data:`SOLVERS` name uniformly.  Sequential
    baselines run on the cluster's metric (so a service
    ``CountingOracle`` still meters them) and report 0 MPC rounds; the
    MPC baselines report the rounds they actually spent on the cluster.
    """

    def solver(
        points=None,
        k: int = 1,
        *,
        metric: MetricSpec = "euclidean",
        machines: Optional[int] = None,
        eps: float = 0.1,
        backend: Union[str, ExecutionBackend] = "serial",
        seed: Optional[int] = None,
        partition: PartitionSpec = "random",
        constants: Optional[TheoryConstants] = None,
        trim_mode: str = "random",
        limits: Optional[Limits] = None,
        cluster: Optional[MPCCluster] = None,
        faults=None,
        outliers: Optional[int] = None,
    ):
        del constants, trim_mode  # interface parity only; baselines have no knobs
        cluster, owned = _resolve_cluster(
            cluster, points, metric, machines, seed, partition, backend, limits,
            faults,
        )
        rounds_before = cluster.stats.rounds

        def call():
            ids, value = run(cluster, int(k), outliers)
            rounds = cluster.stats.rounds - rounds_before
            ids = np.asarray(ids, dtype=np.int64)
            if kind == "kcenter":
                return ClusteringResult(
                    centers=ids, radius=float(value), k=int(k),
                    epsilon=float(eps), tau=float(value),
                    coreset_value=float(value), rounds=rounds,
                )
            return DiversityResult(
                ids=ids, diversity=float(value), k=int(k), epsilon=float(eps),
                coreset_value=float(value), rounds=rounds,
            )

        return _observed_solve(name, cluster, call, owned)

    solver.__name__ = f"solve_{name}"
    solver.__qualname__ = solver.__name__
    solver.__doc__ = doc
    return solver


def _no_outliers(name: str, outliers: Optional[int]) -> None:
    if outliers is not None:
        raise ValueError(f"solver {name!r} does not take an outlier budget")


def _outlier_budget(cluster: MPCCluster, outliers: Optional[int]) -> int:
    z = 0 if outliers is None else int(outliers)
    if z < 0:
        raise ValueError(f"outliers must be >= 0, got {z}")
    if z >= cluster.metric.n:
        raise ValueError(
            f"outliers must be < n={cluster.metric.n}, got {z}"
        )
    return z


solve_gonzalez = _baseline_solver(
    "gonzalez", "kcenter",
    lambda cluster, k, z: (
        _no_outliers("gonzalez", z) or gonzalez_kcenter(cluster.metric, k)
    ),
    "Sequential GMM 2-approximation k-center (Gonzalez 1985).",
)

solve_gonzalez_diversity = _baseline_solver(
    "gonzalez_diversity", "diversity",
    lambda cluster, k, z: (
        _no_outliers("gonzalez_diversity", z)
        or gonzalez_diversity(cluster.metric, k)
    ),
    "Sequential GMM 2-approximation diversity (Ravi et al. 1994).",
)

solve_hochbaum_shmoys = _baseline_solver(
    "hochbaum_shmoys", "kcenter",
    lambda cluster, k, z: (
        _no_outliers("hochbaum_shmoys", z)
        or hochbaum_shmoys_kcenter(cluster.metric, k)
    ),
    "Parametric-pruning 2-approximation k-center (Hochbaum & Shmoys "
    "1985); O(n²) candidate radii — small instances only.",
)

solve_streaming = _baseline_solver(
    "streaming", "kcenter",
    lambda cluster, k, z: (
        _no_outliers("streaming", z) or streaming_kcenter(cluster.metric, k)
    ),
    "One-pass doubling 8-approximation streaming k-center.",
)

solve_charikar_outliers = _baseline_solver(
    "charikar_outliers", "kcenter",
    lambda cluster, k, z: charikar_kcenter_outliers(
        cluster.metric, k, _outlier_budget(cluster, z)
    ),
    "Sequential 3-approximation k-center with up to ``outliers`` "
    "ignored points (Charikar et al. 2001); ``outliers=0`` (the "
    "default) degenerates to plain k-center.",
)

solve_malkomes = _baseline_solver(
    "malkomes", "kcenter",
    lambda cluster, k, z: (
        _no_outliers("malkomes", z) or malkomes_kcenter(cluster, k)
    ),
    "Two-round 4-approximation MPC k-center via GMM coresets "
    "(Malkomes et al. 2015).",
)

solve_malkomes_outliers = _baseline_solver(
    "malkomes_outliers", "kcenter",
    lambda cluster, k, z: malkomes_kcenter_outliers(
        cluster, k, _outlier_budget(cluster, z)
    ),
    "Two-round 13-approximation MPC k-center with up to ``outliers`` "
    "ignored points (Malkomes et al. 2015).",
)

solve_ene = _baseline_solver(
    "ene", "kcenter",
    lambda cluster, k, z: (
        _no_outliers("ene", z) or ene_sampling_kcenter(cluster, k)
    ),
    "Sampling-style MapReduce k-center in the spirit of Ene et al. 2011.",
)

solve_indyk = _baseline_solver(
    "indyk", "diversity",
    lambda cluster, k, z: (
        _no_outliers("indyk", z) or indyk_diversity(cluster, k)
    ),
    "6-approximation MPC diversity via 3-composable GMM coresets "
    "(Indyk et al. 2014).",
)


#: solver dispatch table: algorithm name → facade entry point.  The
#: service layer (:mod:`repro.service`) schedules jobs against these
#: names; adding a solver here makes it servable (and sweepable) with
#: no other change.  The first three are the paper's algorithms; the
#: rest are the :mod:`repro.baselines` comparators behind the same
#: keyword surface.  (``exact_*`` and the MIS references stay out: the
#: former are combinatorial brute force, the latter are not
#: solver-shaped.)
SOLVERS = {
    "kcenter": solve_kcenter,
    "diversity": solve_diversity,
    "ksupplier": solve_ksupplier,
    "gonzalez": solve_gonzalez,
    "gonzalez_diversity": solve_gonzalez_diversity,
    "hochbaum_shmoys": solve_hochbaum_shmoys,
    "streaming": solve_streaming,
    "charikar_outliers": solve_charikar_outliers,
    "malkomes": solve_malkomes,
    "malkomes_outliers": solve_malkomes_outliers,
    "ene": solve_ene,
    "indyk": solve_indyk,
}

#: objective each solver optimizes — what sweeps score it against.
#: ``kcenter``-objective solvers return a ``radius`` (lower is better,
#: ratio vs. the optimal radius); ``diversity`` solvers return a
#: ``diversity`` (higher is better, ratio expressed as opt/achieved).
SOLVER_OBJECTIVES = {
    "kcenter": "kcenter",
    "diversity": "diversity",
    "ksupplier": "ksupplier",
    "gonzalez": "kcenter",
    "gonzalez_diversity": "diversity",
    "hochbaum_shmoys": "kcenter",
    "streaming": "kcenter",
    "charikar_outliers": "kcenter",
    "malkomes": "kcenter",
    "malkomes_outliers": "kcenter",
    "ene": "kcenter",
    "indyk": "diversity",
}


def solve(algorithm: str, points=None, **kwargs):
    """Dispatch to a facade solver by name (see :data:`SOLVERS`).

    ``solve('kcenter', pts, k=8)`` ≡ ``solve_kcenter(pts, k=8)``; the
    keyword surface is the named solver's own.
    """
    try:
        fn = SOLVERS[str(algorithm).lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{', '.join(sorted(SOLVERS))}"
        ) from None
    return fn(points, **kwargs)


__all__: Sequence[str] = [
    "DEFAULT_MACHINES",
    "SOLVERS",
    "SOLVER_OBJECTIVES",
    "make_metric",
    "make_executor",
    "build_cluster",
    "metrics_snapshot",
    "metrics_reset",
    "solve",
    "solve_kcenter",
    "solve_diversity",
    "solve_ksupplier",
]
