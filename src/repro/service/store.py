"""Pluggable service state: store protocols, the lifecycles, and the in-memory backend.

The service keeps its state behind five small protocols, so nothing
above this module touches a dict or a SQL statement:

* :class:`JobStore`   — the job table: records, atomic state
  transitions (claim / heartbeat / finish / cancel), orphan recovery,
  listing with pagination, and bounded terminal history;
* :class:`WorkQueue`  — the bounded FIFO of queued job ids that worker
  processes drain;
* :class:`DatasetStore` — dataset descriptors plus their point blobs,
  content-addressed by the existing fingerprints;
* :class:`ResultStore` — the ``cache_key → (payload, run_log)``
  mapping (the in-memory implementation is
  :class:`~repro.service.cache.ResultCache`);
* :class:`AnalysisStore` — the analysis-sweep table (jobs-of-jobs, see
  :mod:`repro.sweeps`): records, listing with pagination, and the
  atomic report finalization.

The job and analysis lifecycles are written once, here:
:class:`JobLifecycle` and :class:`AnalysisLifecycle` decide every
transition over one write primitive, ``update(id, change)`` — an atomic
read-change-write that stores the changed record with ``version`` one
higher, or writes nothing when the id is unknown or ``change``
declines.  A backend only supplies a keyed, versioned record table:
:class:`MemoryTable` here (a dict under a lock), or the SQLite table in
:mod:`repro.service.sqlite_store`.  :func:`open_stores` picks a
backend: ``open_stores()`` is volatile memory, ``open_stores(path)`` is
a durable state directory shared by any number of frontend and worker
processes.

Concurrency contract (both backends): every method is thread-safe, and
the compare-and-set transitions (:meth:`JobStore.claim`,
:meth:`JobStore.finish`, :meth:`JobStore.recover_orphans`,
:meth:`AnalysisStore.finalize`) are atomic — two workers racing for one
job see exactly one winner.  Records carry a ``version`` that every
write raises by one, so readers can tell stale snapshots from fresh
ones.
"""

from __future__ import annotations

import copy
import itertools
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity; resubmit later."""


class UnknownJobError(KeyError):
    """No job with the requested id."""


class UnknownAnalysisError(KeyError):
    """No analysis with the requested id."""


class JobState(str, Enum):
    """A job's lifecycle state; records store its string value."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: the job states no transition leaves, as stored
TERMINAL_STATES = tuple(s.value for s in JobState if s.terminal)

#: analysis lifecycle states — an analysis is "running" from the moment
#: its record exists (every cell job is submitted before the record is
#: created, so there is no partially-submitted persisted state)
ANALYSIS_STATES = ("running", "done", "failed")

#: analysis states that no sweeper will touch again
ANALYSIS_TERMINAL_STATES = ("done", "failed")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass
class JobRecord:
    """One job — plain data, no threading state.

    A job is nothing but its record: :class:`~repro.service.jobs.JobManager`
    returns snapshots of it, and any process can claim and run the job
    from it.  ``version`` increases on every store write, so two
    snapshots of the same job are ordered.
    """

    id: str
    spec: dict
    state: str = "queued"
    created_at: float = 0.0
    queued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    cached: bool = False
    attempt: int = 0
    attempts: List[dict] = field(default_factory=list)
    trace_id: Optional[str] = None
    #: W3C traceparent of the job's trace context, so a worker in
    #: another process can continue the submitting request's trace
    traceparent: Optional[str] = None
    cancel_requested: bool = False
    #: lease owner while running (``host:pid/worker-i``)
    worker: Optional[str] = None
    #: wall-clock lease expiry; a running job whose lease lapsed is an
    #: orphan (its worker died) and is re-enqueued by the sweeper
    lease_expires_at: Optional[float] = None
    #: recorded run log of the producing run (pickled by durable stores)
    run_log: Optional[object] = None
    #: store write counter; readers apply a record only if newer
    version: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def numeric_id(self) -> int:
        """Submission-order sort key (``job-000042`` → 42)."""
        return int(self.id.rsplit("-", 1)[1])

    def copy(self) -> "JobRecord":
        """A copy that shares no container a transition edits; result
        payloads and run logs are written whole, never edited, and are
        shared."""
        out = copy.copy(self)
        out.spec = dict(self.spec)
        out.attempts = list(self.attempts)
        return out

    def describe(self, include_result: bool = True) -> dict:
        """JSON-safe status record for the API (one shape for
        ``GET /v1/jobs/<id>`` and the list entries)."""
        out = {
            "id": self.id,
            "state": self.state,
            "spec": dict(self.spec),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cached": self.cached,
            "attempt": self.attempt,
            "trace_id": self.trace_id,
        }
        if self.attempts:
            out["attempts"] = [dict(a) for a in self.attempts]
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.result is not None:
            out["result"] = self.result
        return out


@dataclass
class AnalysisRecord:
    """The persistable form of one analysis sweep (a job-of-jobs).

    ``spec`` is the canonical :class:`~repro.sweeps.SweepSpec` dict and
    ``cell_job_ids`` the grid's job ids **in expansion order** — the
    scorer reads cell results back in this order, which is what makes a
    re-finalized report byte-identical.  The ``report`` (ranked cells,
    recommendation, Pareto frontier) is attached atomically by
    :meth:`AnalysisStore.finalize` when every cell is terminal.
    """

    id: str
    spec: dict
    state: str = "running"
    created_at: float = 0.0
    finished_at: Optional[float] = None
    cell_job_ids: List[str] = field(default_factory=list)
    report: Optional[dict] = None
    error: Optional[str] = None
    trace_id: Optional[str] = None
    #: W3C traceparent of the sweep's root context; every cell job's
    #: trace is a child of it, so one trace id spans the whole fan-out
    traceparent: Optional[str] = None
    #: store write counter; readers apply a record only if newer
    version: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in ANALYSIS_TERMINAL_STATES

    @property
    def numeric_id(self) -> int:
        """Submission-order sort key (``an-000042`` → 42)."""
        return int(self.id.rsplit("-", 1)[1])

    def copy(self) -> "AnalysisRecord":
        """A copy that shares no container a transition edits (the
        report is written whole, never edited, and is shared)."""
        out = copy.copy(self)
        out.spec = dict(self.spec)
        out.cell_job_ids = list(self.cell_job_ids)
        return out

    def describe(self, include_report: bool = False) -> dict:
        """JSON-safe status record for the API."""
        out = {
            "id": self.id,
            "state": self.state,
            "spec": dict(self.spec),
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "cells": len(self.cell_job_ids),
            "cell_job_ids": list(self.cell_job_ids),
            "trace_id": self.trace_id,
        }
        if self.error is not None:
            out["error"] = self.error
        if include_report and self.report is not None:
            out["report"] = self.report
        return out


@dataclass
class DatasetRecord:
    """The persistable form of one registered dataset (no live metric)."""

    id: str
    fingerprint: str
    kind: str
    params: dict
    n: int
    metric_name: str
    created_at: float = 0.0

    def describe(self) -> dict:
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "n": self.n,
            "metric": self.metric_name,
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


@runtime_checkable
class JobStore(Protocol):
    """Durable (or volatile) job table with atomic transitions."""

    def next_job_id(self) -> str: ...

    def create(self, record: JobRecord) -> JobRecord: ...

    def get(self, job_id: str) -> JobRecord: ...

    def delete(self, job_id: str) -> None: ...

    def list(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[List[JobRecord], Optional[str]]: ...

    def count_by_state(self) -> Dict[str, int]: ...

    def claim(
        self, job_id: str, worker: str, lease_expires_at: float
    ) -> Optional[JobRecord]: ...

    def heartbeat(
        self, job_id: str, worker: str, lease_expires_at: float
    ) -> Optional[JobRecord]: ...

    def finish(self, record: JobRecord, worker: str) -> Optional[JobRecord]: ...

    def set_cancel_requested(self, job_id: str) -> JobRecord: ...

    def end_queued(
        self, job_id: str, error: Optional[str] = None
    ) -> Optional[JobRecord]: ...

    def recover_orphans(
        self, now: float, max_requeues: int = 5
    ) -> List[JobRecord]: ...

    def prune_terminal(self, max_history: int) -> List[str]: ...


@runtime_checkable
class AnalysisStore(Protocol):
    """Durable (or volatile) analysis table.

    Analyses have no claim/lease machinery of their own — the heavy
    lifting is done by the cell *jobs*, which already carry leases and
    orphan recovery.  The only race to arbitrate is finalization (two
    sweepers observing "all cells terminal" at once), which
    :meth:`finalize` resolves with a compare-and-set on
    ``state == 'running'``: exactly one writer wins, and since reports
    are deterministic the loser's report was byte-identical anyway.
    """

    def next_analysis_id(self) -> str: ...

    def create(self, record: AnalysisRecord) -> AnalysisRecord: ...

    def get(self, analysis_id: str) -> AnalysisRecord: ...

    def delete(self, analysis_id: str) -> None: ...

    def list(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[List[AnalysisRecord], Optional[str]]: ...

    def count_by_state(self) -> Dict[str, int]: ...

    def finalize(self, record: AnalysisRecord) -> Optional[AnalysisRecord]: ...


@runtime_checkable
class WorkQueue(Protocol):
    """Bounded FIFO of queued job ids, shared by every worker."""

    limit: int

    def push(self, job_id: str) -> None: ...

    def pop(self, timeout: float = 0.1) -> Optional[str]: ...

    def depth(self) -> int: ...

    def __contains__(self, job_id: object) -> bool: ...


@runtime_checkable
class DatasetStore(Protocol):
    """Dataset descriptors plus content-addressed point blobs."""

    def put(self, record: DatasetRecord, points: Optional[np.ndarray]) -> DatasetRecord: ...

    def get(self, ds_id: str) -> Optional[DatasetRecord]: ...

    def load_points(self, fingerprint: str) -> Optional[np.ndarray]: ...

    def list(self) -> List[DatasetRecord]: ...

    def find_fingerprint(self, fingerprint: str) -> Optional[DatasetRecord]: ...

    def __len__(self) -> int: ...

    def __contains__(self, ds_id: object) -> bool: ...


@runtime_checkable
class ResultStore(Protocol):
    """``cache_key → (payload, run_log)`` with hit/miss accounting."""

    def get(self, key) -> Optional[Tuple[dict, object]]: ...

    def put(self, key, payload: dict, run_log=None) -> None: ...

    def stats(self) -> dict: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: object) -> bool: ...

    def clear(self) -> None: ...


# ---------------------------------------------------------------------------
# the lifecycles, written once over a record table
# ---------------------------------------------------------------------------


def _orphan_note(record: JobRecord, now: float) -> dict:
    """The ``attempts[]`` entry an orphan requeue leaves behind —
    the same shape crash retries write, so ``attempts`` reads as one
    unified recovery history."""
    return {
        "attempt": record.attempt,
        "error": f"orphaned: worker lease expired ({record.worker or 'unknown'})",
        "failed_at": now,
        "backoff_s": 0.0,
    }


#: a change handed to ``update``: edits the current record (a private
#: copy) and returns the record to store, or ``None`` to decline
Change = Callable[[Any], Optional[Any]]


class _Lifecycle:
    """What job and analysis stores share, over a record table.

    A backend mixes this in with a table that supplies the primitives:
    ``_next_number()`` (from the table's id counter), ``_insert(record)``,
    ``_read(id)`` (a copy, or ``None``), ``update(id, change)``,
    ``_remove(ids)``, ``_ids(states)`` (ids only, in submission order),
    ``list`` and ``count_by_state``.

    Every transition writes through ``update``: an atomic
    read-change-write that stores what ``change`` returns with
    ``version`` one higher and returns it, or writes nothing and
    returns ``None`` when the id is unknown or ``change`` declines.  No
    returned record shares a mutable field with the stored one.
    """

    PREFIX: str
    UNKNOWN: type

    def _new_id(self) -> str:
        return f"{self.PREFIX}-{self._next_number():06d}"

    def create(self, record):
        record.version = 1
        self._insert(record)
        return record.copy()

    def get(self, record_id: str):
        record = self._read(record_id)
        if record is None:
            raise self.UNKNOWN(record_id)
        return record

    def delete(self, record_id: str) -> None:
        self._remove([record_id])


class JobLifecycle(_Lifecycle):
    """Every job transition, decided in one place for both backends.

    These are where the service relies on determinism: a seeded run
    re-runs bit-identically, so a claim, a finish or an orphan requeue
    need only be decided exactly once — which ``update``'s atomicity
    guarantees.
    """

    PREFIX = "job"
    UNKNOWN = UnknownJobError

    def next_job_id(self) -> str:
        return self._new_id()

    def claim(
        self, job_id: str, worker: str, lease_expires_at: float
    ) -> Optional[JobRecord]:
        def change(rec: JobRecord) -> Optional[JobRecord]:
            if rec.state != "queued" or rec.cancel_requested:
                return None
            rec.state = "running"
            rec.worker = worker
            rec.lease_expires_at = lease_expires_at
            rec.started_at = time.time()
            return rec

        return self.update(job_id, change)

    def heartbeat(
        self, job_id: str, worker: str, lease_expires_at: float
    ) -> Optional[JobRecord]:
        def change(rec: JobRecord) -> Optional[JobRecord]:
            if rec.state != "running" or rec.worker != worker:
                return None
            rec.lease_expires_at = lease_expires_at
            return rec

        return self.update(job_id, change)

    def finish(self, record: JobRecord, worker: str) -> Optional[JobRecord]:
        """Store the lease holder's terminal (or requeued) ``record``.

        A cancel request stored since the claim is kept, and a requeue
        of such a job ends it ``cancelled`` instead, as
        :meth:`recover_orphans` does.
        """
        def change(current: JobRecord) -> Optional[JobRecord]:
            if current.state != "running" or current.worker != worker:
                return None
            rec = replace(record, worker=None, lease_expires_at=None)
            if current.cancel_requested:
                rec.cancel_requested = True
                if rec.state == "queued":
                    rec.state = "cancelled"
                    rec.attempt = current.attempt
                    rec.started_at = current.started_at
                    rec.finished_at = time.time()
            return rec

        return self.update(record.id, change)

    def set_cancel_requested(self, job_id: str) -> JobRecord:
        """Flag a live job for cancellation; a queued one ends
        ``cancelled`` in the same write.  A terminal or already-flagged
        job is returned unchanged."""
        def change(rec: JobRecord) -> Optional[JobRecord]:
            if rec.cancel_requested or rec.terminal:
                return None  # nothing to request: no write, no version bump
            rec.cancel_requested = True
            if rec.state == "queued":
                rec.state = "cancelled"
                rec.finished_at = time.time()
            return rec

        updated = self.update(job_id, change)
        return updated if updated is not None else self.get(job_id)

    def end_queued(
        self, job_id: str, error: Optional[str] = None
    ) -> Optional[JobRecord]:
        """End a job that is still queued: ``cancelled`` when a cancel
        request is pending, else ``failed`` with ``error``.  Returns
        ``None`` with nothing written for a job that is not queued, or
        that has no request pending when ``error`` is ``None``."""
        def change(rec: JobRecord) -> Optional[JobRecord]:
            if rec.state != "queued":
                return None
            if rec.cancel_requested:
                rec.state = "cancelled"
            elif error is None:
                return None
            else:
                rec.state = "failed"
                rec.error = error
            rec.finished_at = time.time()
            return rec

        return self.update(job_id, change)

    def recover_orphans(self, now: float, max_requeues: int = 5) -> List[JobRecord]:
        def expired(rec: JobRecord) -> bool:
            return (
                rec.state == "running"
                and rec.lease_expires_at is not None
                and rec.lease_expires_at < now
            )

        def requeue(rec: JobRecord) -> Optional[JobRecord]:
            # re-checked inside the write: a heartbeat that landed since
            # the listing keeps its job running
            if not expired(rec):
                return None
            rec.attempts.append(_orphan_note(rec, now))
            if rec.cancel_requested:
                rec.state = "cancelled"
                rec.finished_at = now
            elif rec.attempt + 1 > max_requeues:
                rec.state = "failed"
                rec.error = (
                    f"orphaned {rec.attempt + 1} times "
                    f"(requeue budget {max_requeues} exhausted)"
                )
                rec.finished_at = now
            else:
                rec.state = "queued"
                rec.attempt += 1
                rec.queued_at = now
                rec.started_at = None
            rec.worker = None
            rec.lease_expires_at = None
            return rec

        running, _ = self.list(state="running")
        recovered = (self.update(rec.id, requeue) for rec in running if expired(rec))
        return [rec for rec in recovered if rec is not None]

    def prune_terminal(self, max_history: int) -> List[str]:
        # ids only: this runs after every terminal commit, and decoding
        # whole records here would cost O(history) per job
        terminal = self._ids(TERMINAL_STATES)
        pruned = terminal[: max(0, len(terminal) - max_history)]
        if pruned:
            self._remove(pruned)
        return pruned


class AnalysisLifecycle(_Lifecycle):
    """The analysis transitions: the one race to arbitrate is
    finalization, a compare-and-set on ``state == 'running'``."""

    PREFIX = "an"
    UNKNOWN = UnknownAnalysisError

    def next_analysis_id(self) -> str:
        return self._new_id()

    def finalize(self, record: AnalysisRecord) -> Optional[AnalysisRecord]:
        return self.update(
            record.id, lambda current: record if current.state == "running" else None
        )


# ---------------------------------------------------------------------------
# in-memory implementations
# ---------------------------------------------------------------------------


class MemoryTable:
    """A keyed, versioned record table: a dict under one lock.

    A stored record is never edited in place — ``update`` swaps in a
    fresh copy — so readers copy it after releasing the lock.  State
    dies with the process; orphan recovery still works within a process
    (a record whose lease lapsed is recoverable).
    """

    backend = "memory"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, Any] = {}
        self._numbers = itertools.count(1)

    def _next_number(self) -> int:
        return next(self._numbers)

    def _insert(self, record) -> None:
        with self._lock:
            self._records[record.id] = record.copy()

    def _read(self, record_id: str):
        with self._lock:
            record = self._records.get(record_id)
        return record.copy() if record is not None else None

    def update(self, record_id: str, change: Change):
        with self._lock:
            current = self._records.get(record_id)
            if current is None:
                return None
            version = current.version + 1
            new = change(current.copy())
            if new is None:
                return None
            new.version = version
            self._records[record_id] = new.copy()
        return new

    def _remove(self, ids: Iterable[str]) -> None:
        with self._lock:
            for record_id in ids:
                self._records.pop(record_id, None)

    def _ids(self, states: Tuple[str, ...]) -> List[str]:
        with self._lock:
            records = [r for r in self._records.values() if r.state in states]
        return [r.id for r in sorted(records, key=lambda r: r.numeric_id)]

    def list(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[list, Optional[str]]:
        with self._lock:
            records = list(self._records.values())
        if state is not None:
            records = [r for r in records if r.state == state]
        if cursor is not None:
            after = int(cursor.rsplit("-", 1)[1])
            records = [r for r in records if r.numeric_id > after]
        records.sort(key=lambda r: r.numeric_id)
        next_cursor = None
        if limit is not None and len(records) > limit:
            records = records[:limit]
            next_cursor = records[-1].id
        return [r.copy() for r in records], next_cursor

    def count_by_state(self) -> Dict[str, int]:
        with self._lock:
            return dict(Counter(r.state for r in self._records.values()))


class InMemoryJobStore(JobLifecycle, MemoryTable):
    """Volatile :class:`JobStore`: the job lifecycle over a dict."""


class InMemoryAnalysisStore(AnalysisLifecycle, MemoryTable):
    """Volatile :class:`AnalysisStore`: the analysis lifecycle over a dict."""


class InMemoryWorkQueue:
    """:class:`queue.Queue`-backed bounded FIFO (the PR-3 queue)."""

    backend = "memory"

    def __init__(self, limit: int = 64) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._queue: "queue.Queue[str]" = queue.Queue(maxsize=limit)

    def push(self, job_id: str) -> None:
        try:
            self._queue.put_nowait(job_id)
        except queue.Full:
            raise QueueFullError(
                f"job queue full ({self.limit} queued); retry later"
            ) from None

    def pop(self, timeout: float = 0.1) -> Optional[str]:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def depth(self) -> int:
        return self._queue.qsize()

    def __contains__(self, job_id: object) -> bool:
        with self._queue.mutex:
            return job_id in self._queue.queue


class InMemoryDatasetStore:
    """Dict-backed :class:`DatasetStore`; point arrays held by reference."""

    backend = "memory"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, DatasetRecord] = {}
        self._points: Dict[str, np.ndarray] = {}

    def put(self, record: DatasetRecord, points: Optional[np.ndarray]) -> DatasetRecord:
        with self._lock:
            existing = self._records.get(record.id)
            if existing is not None:
                return existing
            self._records[record.id] = record
            if points is not None:
                self._points[record.fingerprint] = np.asarray(points, dtype=np.float64)
            return record

    def get(self, ds_id: str) -> Optional[DatasetRecord]:
        with self._lock:
            return self._records.get(ds_id)

    def load_points(self, fingerprint: str) -> Optional[np.ndarray]:
        with self._lock:
            return self._points.get(fingerprint)

    def list(self) -> List[DatasetRecord]:
        with self._lock:
            return list(self._records.values())

    def find_fingerprint(self, fingerprint: str) -> Optional[DatasetRecord]:
        with self._lock:
            for rec in self._records.values():
                if rec.fingerprint == fingerprint:
                    return rec
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, ds_id: object) -> bool:
        with self._lock:
            return ds_id in self._records


# ---------------------------------------------------------------------------
# backend factory
# ---------------------------------------------------------------------------


@dataclass
class ServiceStores:
    """One bundle of the stores a service instance runs on."""

    jobs: JobStore
    work_queue: WorkQueue
    datasets: DatasetStore
    results: ResultStore
    analyses: AnalysisStore
    #: ``"memory"`` or ``"sqlite"``
    backend: str
    #: the shared state directory for durable backends, else ``None``
    state_dir: Optional[str] = None

    def describe(self) -> dict:
        return {
            "backend": self.backend,
            "state_dir": self.state_dir,
            "queue_limit": self.work_queue.limit,
        }


def open_stores(
    state_dir: Optional[str] = None,
    *,
    queue_limit: int = 64,
    cache_entries: int = 1024,
) -> ServiceStores:
    """Open a store bundle: volatile when ``state_dir`` is ``None``,
    SQLite/file-backed (WAL, safe for concurrent frontend and worker
    processes) when a directory path is given.

    Any number of processes may open the same directory; they share one
    job table, one work queue, one dataset store, and one result store.
    """
    if state_dir is None:
        from repro.service.cache import ResultCache

        return ServiceStores(
            jobs=InMemoryJobStore(),
            work_queue=InMemoryWorkQueue(limit=queue_limit),
            datasets=InMemoryDatasetStore(),
            results=ResultCache(max_entries=cache_entries),
            analyses=InMemoryAnalysisStore(),
            backend="memory",
        )
    from repro.service.sqlite_store import (
        SqliteAnalysisStore,
        SqliteDatasetStore,
        SqliteJobStore,
        SqliteResultStore,
        SqliteWorkQueue,
        prepare_state_dir,
    )

    db_path, blob_dir = prepare_state_dir(state_dir)
    return ServiceStores(
        jobs=SqliteJobStore(db_path),
        work_queue=SqliteWorkQueue(db_path, limit=queue_limit),
        datasets=SqliteDatasetStore(db_path, blob_dir),
        results=SqliteResultStore(db_path, max_entries=cache_entries),
        analyses=SqliteAnalysisStore(db_path),
        backend="sqlite",
        state_dir=str(state_dir),
    )


def ensure_queued_jobs_enqueued(
    jobs: JobStore, work_queue: WorkQueue, *, older_than_s: float = 0.0,
    now: Optional[float] = None,
) -> List[str]:
    """Re-push queued job records missing from the work queue.

    Covers two loss windows: a process that died between persisting a
    record and pushing its id, and a worker that popped an id and died
    before claiming the job.  With ``older_than_s > 0`` only records
    that have sat queued at least that long are considered, so the
    sweep never races a submission that is about to push.
    """
    now = time.time() if now is None else now
    repushed: List[str] = []
    queued, _ = jobs.list(state="queued")
    for rec in queued:
        if now - rec.queued_at < older_than_s:
            continue
        if rec.id in work_queue:
            continue
        try:
            work_queue.push(rec.id)
        except QueueFullError:
            break
        repushed.append(rec.id)
    return repushed
