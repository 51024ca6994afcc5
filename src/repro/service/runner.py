"""Execute one job spec through the solver facade.

The runner is the bridge between the queueing layer and
:mod:`repro.api`: it assembles the cluster exactly the way a direct
``solve_*`` call would (same seed, partition, and machine count — so a
service result is bit-identical to the equivalent library call), wraps
the metric in a :class:`~repro.metric.oracle.CountingOracle`, attaches a
per-job :class:`~repro.obs.Recorder`, and dispatches by algorithm name.

Cancellation and timeouts piggyback on the observability layer: a
:class:`_JobControl` observer checks the cancel event and the deadline
at every MPC round barrier and raises :class:`JobCancelled` /
:class:`JobTimeout` to unwind the solver.  Granularity is one round —
a job is interruptible wherever the simulated cluster synchronizes,
which for these algorithms is every few hundred milliseconds of local
work at most.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import threading

import numpy as np

from repro.api import SOLVERS, build_cluster
from repro.constants import TheoryConstants
from repro.core.warm import WarmStart
from repro.metric.oracle import CountingOracle
from repro.obs import Observer, Recorder, RunLog
from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.obs.tracing import TraceContext, current_trace, use_trace
from repro.service.datasets import Dataset
from repro.service.spec import JobSpec


class JobCancelled(Exception):
    """The job's cancel event was set while it was running."""


class JobTimeout(Exception):
    """The job exceeded its wall-clock budget."""


class _JobControl(Observer):
    """Observer that aborts a run at round barriers."""

    wants_messages = False  # keep the hub's per-message fast path active

    def __init__(self, cancel_event: Optional[threading.Event],
                 deadline: Optional[float]) -> None:
        self.cancel_event = cancel_event
        self.deadline = deadline

    def _check(self) -> None:
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise JobCancelled()
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise JobTimeout()

    def on_round_start(self, round_no: int) -> None:
        self._check()

    def on_round_end(self, record) -> None:
        self._check()


def drift_report(
    ids,
    objective: float,
    *,
    parent_centers,
    parent_objective: float,
    appended: int,
) -> dict:
    """Quantify how far a child solution drifted from its parent's.

    All fields are pure functions of the two solutions (no wall-clock,
    no job ids), so the report is bit-identical wherever the same
    chain is re-solved:

    * ``appended`` — points added since the parent version;
    * ``center_overlap`` — fraction of the parent's centers retained
      in the child solution;
    * ``objective_delta`` — child objective minus parent objective
      (positive = radius grew / diversity rose);
    * ``drift_ratio`` — child objective over parent objective
      (``None`` when the parent objective is 0).
    """
    ids = np.asarray(ids, dtype=np.int64)
    parent_centers = np.asarray(parent_centers, dtype=np.int64)
    shared = np.intersect1d(ids, parent_centers).size
    overlap = float(shared) / float(parent_centers.size) if parent_centers.size else 0.0
    return {
        "appended": int(appended),
        "center_overlap": overlap,
        "objective": float(objective),
        "objective_delta": float(objective) - float(parent_objective),
        "drift_ratio": (
            float(objective) / float(parent_objective)
            if parent_objective not in (0, 0.0)
            else None
        ),
    }


def execute_job(
    spec: JobSpec,
    dataset: Dataset,
    *,
    backend: str = "serial",
    remote_workers=None,
    cancel_event: Optional[threading.Event] = None,
    job_id: Optional[str] = None,
    faults=None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[TraceContext] = None,
    warm: Optional[dict] = None,
) -> Tuple[dict, RunLog]:
    """Run one job; returns ``(payload, run_log)``.

    ``warm`` (for ``spec.warm_start`` jobs; the manager resolves it
    from the parent version's cached result) is a dict with the parent
    ``dataset``/``fingerprint``/``base_n``/``centers``/``objective``;
    the solver then reuses the parent's centers as the initial GMM
    state (:class:`repro.core.WarmStart`) and the payload gains
    ``warm_start`` and ``drift`` sections.  Everything in those
    sections derives from solver output, so warm payloads stay
    bit-identical across backends and kill/restart recovery.

    The payload is JSON-safe: the solver's result record
    (:meth:`to_dict`), the cluster's MPC accounting summary, the
    per-phase breakdown from the recorded run log, and — when a fault
    plan was active — a ``recovery`` section with the injection and
    recovery counts.

    ``backend`` is the manager's default; a spec that pins
    ``backend=`` overrides it per job.  ``remote_workers`` carries the
    remote worker-agent addresses handed to
    :class:`~repro.mpc.remote.RemoteExecutor` when the effective
    backend is ``'remote'`` (other backends ignore it).

    When ``metrics`` is given (the manager passes its own registry), it
    is the ambient registry of the solve
    (:func:`~repro.obs.metrics.use_registry`), so the facade's metrics
    observer streams the run's solver count and latency, rounds, span
    durations, oracle deltas, and fault events into it and not into
    the process-global registry — this is what ``GET /metrics``
    aggregates across jobs.

    ``trace`` is the request's :class:`~repro.obs.tracing.TraceContext`
    (the manager passes the job's); it falls back to the ambient
    context, then to a deterministic seed-derived root — every executed
    job is traced, and a directly-invoked runner traces reproducibly.
    """
    ctx = trace if trace is not None else current_trace()
    if ctx is None:
        ctx = TraceContext.from_seed(spec.seed, name="run")
    backend = spec.backend if spec.backend is not None else backend
    oracle = CountingOracle(dataset.metric)
    cluster = build_cluster(
        metric=oracle,
        machines=spec.machines,
        seed=spec.seed,
        partition=spec.partition,
        backend=backend,
        workers=remote_workers,
        faults=faults,
        trace=ctx,
    )
    recorder = Recorder.attach(cluster, capture_messages=False)
    recorder.log.meta.update(
        {
            "job": job_id,
            "algorithm": spec.algorithm,
            "dataset": dataset.id,
            "fingerprint": dataset.fingerprint,
            "k": spec.k,
            "eps": spec.eps,
            "seed": spec.seed,
            "backend": backend,
        }
    )
    if cluster.faults is not None:
        recorder.log.meta["faults"] = cluster.faults.describe()
    deadline = (
        time.monotonic() + spec.timeout_s if spec.timeout_s is not None else None
    )
    control = cluster.obs.add(_JobControl(cancel_event, deadline))

    constants = (
        TheoryConstants.paper() if spec.constants == "paper"
        else TheoryConstants.practical()
    )
    kwargs = dict(
        k=spec.k,
        eps=spec.eps,
        constants=constants,
        trim_mode=spec.trim_mode,
        cluster=cluster,
    )
    if spec.algorithm == "ksupplier":
        kwargs["customers"] = list(spec.customers)
        kwargs["suppliers"] = list(spec.suppliers)
    if spec.outliers is not None:
        kwargs["outliers"] = spec.outliers
    if warm is not None:
        kwargs["warm_start"] = WarmStart(
            base_n=int(warm["base_n"]),
            centers=np.asarray(warm["centers"], dtype=np.int64),
            objective=float(warm["objective"]),
        )

    registry = metrics if metrics is not None else current_registry()
    try:
        with use_trace(ctx), use_registry(registry):
            result = SOLVERS[spec.algorithm](**kwargs)
    finally:
        cluster.obs.remove(control)
        cluster.executor.shutdown()

    payload = {
        "algorithm": spec.algorithm,
        "dataset": dataset.id,
        "fingerprint": dataset.fingerprint,
        "record": result.to_dict(),
        "mpc_stats": cluster.stats.summary(),
        "oracle": {
            "calls": int(oracle.calls),
            "evaluations": int(oracle.evaluations),
        },
        "phases": recorder.log.phase_summary(),
    }
    if warm is not None:
        ids = result.centers if spec.algorithm == "kcenter" else result.ids
        objective = (
            result.radius if spec.algorithm == "kcenter" else result.diversity
        )
        payload["warm_start"] = {
            "parent": {
                "dataset": warm["dataset"],
                "fingerprint": warm["fingerprint"],
                "n": int(warm["base_n"]),
                "objective": float(warm["objective"]),
            }
        }
        payload["drift"] = drift_report(
            ids, float(objective),
            parent_centers=warm["centers"],
            parent_objective=float(warm["objective"]),
            appended=dataset.n - int(warm["base_n"]),
        )
    if cluster.faults is not None or recorder.log.faults:
        recovery = {"fault_summary": recorder.log.fault_summary()}
        stats_fn = getattr(cluster.executor, "recovery_stats", None)
        if stats_fn is not None:
            recovery["executor"] = stats_fn()
        payload["recovery"] = recovery
    pool_fn = getattr(cluster.executor, "pool_status", None)
    if pool_fn is not None:
        # remote backend: record the pool's end-of-run shape (surviving
        # workers, per-worker loss reasons, any degradation) even on
        # fault-free runs — agents can die without an injection plan
        payload["remote_pool"] = pool_fn()
        if "recovery" not in payload:
            stats_fn = getattr(cluster.executor, "recovery_stats", None)
            if stats_fn is not None:
                payload["recovery"] = {"executor": stats_fn()}
    return payload, recorder.log
