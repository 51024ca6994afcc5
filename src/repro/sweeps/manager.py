"""The sweep manager: jobs-of-jobs over a :class:`JobManager`.

``submit`` expands a validated :class:`~repro.sweeps.spec.SweepSpec`
into its deterministic cell grid, submits every cell as a plain job
through the existing :class:`~repro.service.jobs.JobManager` (the
result cache dedupes shared grid cells; retries, fault injection, and
lease-based orphan recovery all ride along unchanged), and persists an
:class:`~repro.service.store.AnalysisRecord` referencing the cell job
ids in expansion order.

Finalization is decoupled from submission: *any* process sharing the
store bundle — the submitting frontend, a ``--role worker`` fleet
member, a later restart — observes "every cell terminal" through its
sweeper thread, scores the cells (:mod:`repro.sweeps.scoring`), and
attaches the ranked report with a compare-and-set
(:meth:`~repro.service.store.AnalysisStore.finalize`).  Exactly one
finalizer wins the CAS; since the report is a pure function of the
spec and the (bit-identical) cell results, the race is invisible in
the output.

Ordering guarantee: every cell job is submitted *before* the analysis
record is created, so a persisted analysis always references its full
grid — there is no partially-submitted durable state to recover.

Tracing: one trace id spans the whole fan-out.  The analysis takes a
child context of the submitting request (``analysis``), and every cell
job gets a ``cell-<index>`` child of that — so the Chrome export shows
the entire grid under a single trace id, one span subtree per cell.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext
from repro.service.jobs import JobManager
from repro.service.store import (
    AnalysisRecord,
    AnalysisStore,
    QueueFullError,
    UnknownJobError,
)
from repro.sweeps.scoring import build_report, reference_for
from repro.sweeps.spec import SweepSpec


class AnalysisNotReady(RuntimeError):
    """The analysis has no report yet (still running)."""


#: the manager's tallies are these registry counters; a family is
#: registered at its first event, so an idle manager adds no series
_SUBMITTED = "repro_sweeps_submitted_total"
_COMPLETED = "repro_sweeps_completed_total"
_CELLS = "repro_sweep_cells_total"


def _tallies(registry: MetricsRegistry) -> Dict[str, Dict[str, int]]:
    """The tally counters registered so far, as ``{name: {label value:
    count}}`` (label value ``""`` for the unlabeled one)."""
    return {
        fam.name: {"".join(values): int(child.value) for values, child in fam.children()}
        for fam in registry.families() if fam.name in (_SUBMITTED, _COMPLETED, _CELLS)
    }


class SweepManager:
    """Submits, tracks, and finalizes analysis sweeps.

    One instance per process; frontends use it to submit and serve,
    workers run only its sweeper thread so a killed frontend's (or
    killed worker's) analyses still get finalized by whoever is left.
    """

    def __init__(
        self,
        jobs: JobManager,
        *,
        poll_s: float = 0.2,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.jobs = jobs
        self.store: AnalysisStore = jobs.stores.analyses
        self.poll_s = float(poll_s)
        self.metrics = metrics if metrics is not None else jobs.metrics
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sweeper: Optional[threading.Thread] = None
        self._wakeups: Dict[str, threading.Event] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SweepManager":
        """Start the background sweeper (idempotent)."""
        if self._sweeper is None or not self._sweeper.is_alive():
            self._stop.clear()
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="analysis-sweeper", daemon=True
            )
            self._sweeper.start()
        return self

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        sweeper = self._sweeper
        if wait and sweeper is not None and sweeper.is_alive():
            sweeper.join(timeout=5.0)
        self._sweeper = None

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.poll_s):
            try:
                self.advance_now()
            except Exception:  # noqa: BLE001 - the sweeper must survive
                pass

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self, spec: SweepSpec, trace: Optional[TraceContext] = None
    ) -> AnalysisRecord:
        """Expand the grid, submit every cell job, persist the record.

        Raises :class:`~repro.service.datasets.UnknownDatasetError` when
        a swept dataset id is unregistered (before anything is
        submitted) and :class:`QueueFullError` when the work queue
        cannot absorb the whole grid — already-submitted cells are then
        best-effort cancelled and no analysis record is left behind.
        """
        for ds_id in spec.datasets:
            self.jobs.datasets.get(ds_id)  # raises UnknownDatasetError

        base = trace if trace is not None else TraceContext.generate()
        analysis_trace = base.child("analysis")
        analysis_id = self.store.next_analysis_id()
        grid = spec.grid()

        cell_job_ids: List[str] = []
        try:
            for cell in grid:
                job_spec = spec.cell_job_spec(
                    cell,
                    tags={"analysis": analysis_id, "cell": cell["index"]},
                )
                job = self.jobs.submit(
                    job_spec,
                    trace=analysis_trace.child(f"cell-{cell['index']:04d}"),
                )
                cell_job_ids.append(job.id)
        except QueueFullError:
            for job_id in cell_job_ids:
                try:
                    self.jobs.cancel(job_id)
                except Exception:  # noqa: BLE001 - cleanup is best-effort
                    pass
            raise QueueFullError(
                f"work queue cannot absorb the sweep's {len(grid)} cells; "
                "retry later or split the grid"
            ) from None

        record = AnalysisRecord(
            id=analysis_id,
            spec=spec.to_dict(),
            state="running",
            created_at=time.time(),
            cell_job_ids=cell_job_ids,
            trace_id=analysis_trace.trace_id,
            traceparent=analysis_trace.to_traceparent(),
        )
        created = self.store.create(record)
        self.metrics.counter(_SUBMITTED, "analysis sweeps admitted").inc()
        self._count_cells("submitted", len(grid))
        # cache-hit-only sweeps (and tiny grids already drained) finish
        # without a single sweeper tick
        finalized = self._try_finalize(created)
        return finalized if finalized is not None else created

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def get(self, analysis_id: str) -> AnalysisRecord:
        return self.store.get(analysis_id)

    def list_records(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[List[AnalysisRecord], Optional[str]]:
        return self.store.list(state=state, limit=limit, cursor=cursor)

    def report(self, analysis_id: str) -> dict:
        """The finished analysis' ranked report.

        Raises :class:`AnalysisNotReady` while the sweep is running and
        when it failed before producing a report.
        """
        record = self.store.get(analysis_id)
        if record.report is None:
            raise AnalysisNotReady(
                f"analysis {analysis_id} has no report (state: {record.state})"
            )
        return record.report

    def wait(self, analysis_id: str, timeout: Optional[float] = None) -> AnalysisRecord:
        """Block until the analysis reaches a terminal state."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        event = threading.Event()
        with self._lock:
            self._wakeups[analysis_id] = event
        try:
            while True:
                record = self.store.get(analysis_id)
                if record.terminal:
                    return record
                self.advance_now()
                record = self.store.get(analysis_id)
                if record.terminal:
                    return record
                remaining = (
                    deadline - time.monotonic() if deadline is not None else 0.05
                )
                if deadline is not None and remaining <= 0:
                    raise TimeoutError(
                        f"analysis {analysis_id} still {record.state} "
                        f"after {timeout}s"
                    )
                event.wait(min(0.05, max(remaining, 0.001)))
        finally:
            with self._lock:
                self._wakeups.pop(analysis_id, None)

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def advance_now(self) -> int:
        """Finalize every running analysis whose cells are all terminal;
        returns how many this call finalized."""
        finalized = 0
        running, _ = self.store.list(state="running")
        for record in running:
            if self._try_finalize(record) is not None:
                finalized += 1
        return finalized

    def _cell_outcome(self, job_id: str) -> Optional[dict]:
        """Distill one cell job record; ``None`` while non-terminal."""
        try:
            rec = self.jobs.stores.jobs.get(job_id)
        except UnknownJobError:
            # the job table's bounded history pruned the record before
            # finalization — score the cell as lost
            return {
                "state": "failed",
                "result": None,
                "error": f"cell job {job_id} no longer in the job table",
            }
        if not rec.terminal:
            return None
        if rec.state == "done":
            return {"state": "done", "result": rec.result, "error": None}
        return {
            "state": "failed",
            "result": None,
            "error": rec.error or f"cell job {job_id} {rec.state}",
        }

    def _try_finalize(self, record: AnalysisRecord) -> Optional[AnalysisRecord]:
        if record.state != "running":
            return None
        outcomes = []
        for job_id in record.cell_job_ids:
            outcome = self._cell_outcome(job_id)
            if outcome is None:
                return None
            outcomes.append(outcome)

        spec = SweepSpec.from_dict(record.spec)
        grid = spec.grid()
        references: Dict[Tuple[str, str, int], Tuple[float, str]] = {}

        def resolve(dataset_id: str, objective: str, k: int) -> Tuple[float, str]:
            key = (dataset_id, objective, k)
            if key not in references:
                dataset = self.jobs.datasets.get(dataset_id)
                references[key] = reference_for(dataset.metric, objective, k)
            return references[key]

        report = build_report(record.spec, grid, outcomes, resolve)
        done_cells = report["counts"].get("done", 0)
        record.report = report
        record.state = "done" if done_cells > 0 else "failed"
        if record.state == "failed":
            record.error = "every cell job failed"
        record.finished_at = time.time()
        final = self.store.finalize(record)
        if final is None:
            return None  # another sweeper won the CAS (identical report)
        self.metrics.counter(
            _COMPLETED, "analysis sweeps finalized", labels=("state",),
        ).labels(final.state).inc()
        for cell in report["cells"]:
            self._count_cells(cell["state"], 1)
        with self._lock:
            event = self._wakeups.get(final.id)
        if event is not None:
            event.set()
        return final

    def _count_cells(self, outcome: str, amount: int) -> None:
        self.metrics.counter(
            _CELLS, "sweep cells by outcome", labels=("outcome",),
        ).labels(outcome).inc(amount)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        by_state = {s: 0 for s in ("running", "done", "failed")}
        by_state.update(self.store.count_by_state())
        tallies = _tallies(self.metrics)
        return {
            "analyses_submitted_total": tallies.get(_SUBMITTED, {}).get("", 0),
            "analyses_by_state": by_state,
            "analyses_completed_total": tallies.get(_COMPLETED, {}),
            "cells_total": tallies.get(_CELLS, {}),
        }

    def sync_metrics(self) -> MetricsRegistry:
        """Mirror fleet-wide analysis state into the registry (the
        counters are incremented inline; the by-state gauge follows the
        shared store, so every process scrapes the same truth)."""
        stats = self.stats()
        gauge = self.metrics.gauge(
            "repro_sweeps_by_state", "analyses per lifecycle state",
            labels=("state",),
        )
        for state, count in stats["analyses_by_state"].items():
            gauge.labels(state).set(count)
        return self.metrics
