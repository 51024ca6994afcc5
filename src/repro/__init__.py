"""repro — reproduction of *Almost Optimal Massively Parallel Algorithms
for k-Center Clustering and Diversity Maximization* (Haqi &
Zarrabi-Zadeh, SPAA 2023).

Quickstart::

    import numpy as np
    from repro import solve_kcenter

    rng = np.random.default_rng(0)
    result = solve_kcenter(rng.normal(size=(1000, 2)), k=10,
                           eps=0.1, backend="process", seed=0)
    print(result.radius, result.stats["rounds"])

The facade (:mod:`repro.api`) assembles metric, partition, and
execution backend for you; for full control build the pieces by hand::

    from repro import EuclideanMetric, MPCCluster, mpc_kcenter

    metric = EuclideanMetric(rng.normal(size=(1000, 2)))
    cluster = MPCCluster(metric, num_machines=8, seed=0)
    result = mpc_kcenter(cluster, k=10, epsilon=0.1)

Public surface:

* the facade — :func:`solve_kcenter`, :func:`solve_diversity`,
  :func:`solve_ksupplier`, :func:`build_cluster`;
* metrics — :class:`EuclideanMetric`, :class:`ManhattanMetric`,
  :class:`ChebyshevMetric`, :class:`MinkowskiMetric`,
  :class:`HammingMetric`, :class:`AngularMetric`, :class:`MatrixMetric`,
  :class:`GraphShortestPathMetric`, wrappers :class:`CountingOracle`,
  :class:`CachedOracle`;
* the simulator — :class:`MPCCluster`, :class:`Limits`, partitioners,
  and the execution backends (:class:`SerialExecutor`,
  :class:`ProcessExecutor`, :func:`get_executor`);
* observability — :class:`Observer`, :class:`ObserverHub` (as
  ``cluster.obs``), :class:`Recorder`, :class:`RunLog`, and the trace
  exporters in :mod:`repro.obs`;
* fault injection — :class:`FaultPlan` (deterministic, seeded chaos
  across executor, machine, and service layers; see
  :mod:`repro.faults` and ``docs/fault_tolerance.md``);
* the job service — :mod:`repro.service` (import it explicitly):
  ``JobManager``, ``DatasetRegistry``, ``ResultCache``,
  ``ServiceClient``, and the ``repro serve`` HTTP/JSON API;
* the paper's algorithms — :func:`mpc_kcenter`, :func:`mpc_diversity`,
  :func:`mpc_ksupplier`, :func:`mpc_k_bounded_mis`,
  :func:`mpc_degree_approximation`, :func:`gmm`, plus the two-round
  4-approximation side products;
* constants — :class:`TheoryConstants`.
"""

from repro._version import __version__
from repro.api import (
    SOLVERS,
    build_cluster,
    make_executor,
    make_metric,
    metrics_reset,
    metrics_snapshot,
    solve,
    solve_diversity,
    solve_kcenter,
    solve_ksupplier,
)
from repro.constants import DEFAULT_CONSTANTS, TheoryConstants
from repro.core import (
    ClusteringResult,
    CoresetResult,
    DiversityResult,
    DominatingSetResult,
    MISResult,
    SupplierResult,
    ThresholdGraphView,
    WarmStart,
    gmm,
    mpc_degree_approximation,
    mpc_diversity,
    mpc_diversity_coreset,
    mpc_dominating_set,
    mpc_k_bounded_mis,
    mpc_kcenter,
    mpc_kcenter_coreset,
    mpc_ksupplier,
    neighborhood_independence,
    trim,
)
from repro.exceptions import (
    CommunicationLimitExceeded,
    ConvergenceError,
    FaultError,
    InfeasibleInstanceError,
    InvalidSolutionError,
    MachineFault,
    MemoryLimitExceeded,
    MPCError,
    ReproError,
    SolutionError,
    UnknownPointError,
)
from repro.faults import FaultPlan
from repro.metric import (
    AngularMetric,
    CachedOracle,
    ChebyshevMetric,
    CountingOracle,
    EditDistanceMetric,
    EuclideanMetric,
    GraphShortestPathMetric,
    HammingMetric,
    HaversineMetric,
    ManhattanMetric,
    MatrixMetric,
    Metric,
    MinkowskiMetric,
    PointSet,
)
from repro.mpc import (
    BACKENDS,
    ExecutionBackend,
    Limits,
    MPCCluster,
    ProcessExecutor,
    SerialExecutor,
    adversarial_partition,
    block_partition,
    get_executor,
    random_partition,
    skewed_partition,
)
from repro.obs import (
    MetricsObserver,
    MetricsRegistry,
    Observer,
    ObserverHub,
    Recorder,
    RunLog,
)

__all__ = [
    "__version__",
    # facade
    "solve",
    "SOLVERS",
    "solve_kcenter",
    "solve_diversity",
    "solve_ksupplier",
    "build_cluster",
    "make_metric",
    "make_executor",
    "metrics_snapshot",
    "metrics_reset",
    # constants
    "TheoryConstants",
    "DEFAULT_CONSTANTS",
    # metrics
    "Metric",
    "PointSet",
    "EuclideanMetric",
    "MinkowskiMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "HammingMetric",
    "HaversineMetric",
    "AngularMetric",
    "EditDistanceMetric",
    "MatrixMetric",
    "GraphShortestPathMetric",
    "CountingOracle",
    "CachedOracle",
    # simulator
    "MPCCluster",
    "Limits",
    # execution backends
    "BACKENDS",
    "ExecutionBackend",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    # observability
    "Observer",
    "ObserverHub",
    "Recorder",
    "RunLog",
    "MetricsObserver",
    "MetricsRegistry",
    "random_partition",
    "block_partition",
    "skewed_partition",
    "adversarial_partition",
    # algorithms
    "gmm",
    "trim",
    "ThresholdGraphView",
    "mpc_degree_approximation",
    "mpc_k_bounded_mis",
    "mpc_kcenter",
    "mpc_kcenter_coreset",
    "mpc_diversity",
    "mpc_diversity_coreset",
    "mpc_ksupplier",
    "mpc_dominating_set",
    "neighborhood_independence",
    "WarmStart",
    # results
    "DominatingSetResult",
    "MISResult",
    "CoresetResult",
    "ClusteringResult",
    "DiversityResult",
    "SupplierResult",
    # fault injection
    "FaultPlan",
    "FaultError",
    "MachineFault",
    # errors
    "ReproError",
    "MPCError",
    "MemoryLimitExceeded",
    "CommunicationLimitExceeded",
    "UnknownPointError",
    "SolutionError",
    "InvalidSolutionError",
    "InfeasibleInstanceError",
    "ConvergenceError",
]
