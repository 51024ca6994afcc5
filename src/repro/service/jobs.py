"""Async job manager: durable job table + shared work queue + worker pool.

The :class:`JobManager` is the service's scheduling core and is fully
usable without HTTP (the API layer in :mod:`repro.service.http` is a
thin JSON shim over it):

* **admission** — :meth:`submit` validates the spec against the dataset
  registry, consults the result cache (a hit completes the job
  instantly, without touching the queue), and otherwise persists a
  record in the :class:`~repro.service.store.JobStore` and pushes its id
  onto the shared :class:`~repro.service.store.WorkQueue`.  When the
  bounded queue is full it raises :class:`QueueFullError` — callers
  apply back-pressure (HTTP maps it to ``429``) instead of buffering
  unboundedly;
* **execution** — worker threads pop job ids FIFO, *claim* them with an
  atomic ``queued → running`` compare-and-set in the store (two workers
  racing for one id see exactly one winner — the CAS is what makes N
  worker processes on one state directory safe), and run them through
  :func:`repro.service.runner.execute_job`;
* **lifecycle** — ``queued → running → done | failed | cancelled``.
  Cancelling a queued job marks it immediately; cancelling a running
  job sets a ``cancel_requested`` flag in the store — the owning
  worker's heartbeat picks it up (even from another process) and its
  round-barrier observer unwinds the run.  Timeouts travel the same
  path and land in ``failed``;
* **retry** — a :class:`RetryPolicy` (manager default, overridable per
  job via ``spec.max_retries``) re-enqueues crashed jobs with
  exponential backoff and deterministic jitter.  Cancellations and
  timeouts are *not* retried — they are decisions, not faults;
* **orphan recovery** — every running job carries a worker lease,
  renewed by a heartbeat thread.  A worker that dies (SIGKILL, power
  loss) stops renewing; the sweeper detects the expired lease and
  re-enqueues the job through the same requeue path the retry machinery
  uses, recording the recovery on the job's ``attempts[]``, in the
  orphan counters (``/stats``, ``/metrics``) and as service-layer
  :class:`~repro.obs.events.FaultEvent`\\ s.  Because solver runs are
  deterministic, the re-run's result is bit-identical to what the lost
  worker would have produced.

State lives behind the pluggable stores from
:mod:`repro.service.store` — in-memory by default (exactly the old
single-process behaviour), SQLite/file-backed when the service is
started on a ``--state-dir``.  A job is its
:class:`~repro.service.store.JobRecord`: the manager returns snapshots
of it and keeps per process only the cancel event of each job it holds
a lease on.  A manager can run as one of three
**roles**: ``all`` (accept + execute, the default), ``frontend``
(accept and enqueue only, no worker threads), or ``worker`` (drain the
shared queue, no HTTP) — N workers and M frontends sharing one state
directory form one horizontal service.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultPlan
from repro.obs.events import FaultEvent
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext, use_trace
from repro.service.cache import ResultCache
from repro.service.datasets import DatasetRegistry
from repro.service.runner import JobCancelled, JobTimeout, execute_job
from repro.service.spec import JobSpec
from repro.service.store import (
    JobRecord,
    JobState,
    QueueFullError,
    ServiceStores,
    UnknownJobError,
    ensure_queued_jobs_enqueued,
    open_stores,
)

__all__ = [
    "JobManager",
    "JobState",
    "QueueFullError",
    "RetryPolicy",
    "UnknownJobError",
    "ROLES",
]

_log = get_logger("repro.service.jobs")

#: manager roles: accept+execute / accept only / execute only
ROLES = ("all", "frontend", "worker")


@dataclass(frozen=True)
class RetryPolicy:
    """How the manager retries crashed jobs.

    The default budget is 0 — retry is opt-in, because a
    deterministically-failing job would just fail slower.  Backoff is
    exponential with a small *deterministic* jitter (hashed from the
    job id and attempt number, so reruns of a chaos suite sleep the
    same amounts).
    """

    #: re-runs after the first failed attempt (0 = fail immediately)
    max_retries: int = 0
    #: initial backoff before the first retry, seconds
    backoff_s: float = 0.25
    #: multiplier applied per subsequent retry
    factor: float = 2.0
    #: backoff ceiling, seconds
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based), seconds.

        Jitter is ±25%, derived from ``(key, attempt)`` with BLAKE2b —
        a pure function, so a replayed run backs off identically.
        """
        base = min(self.backoff_s * self.factor ** (attempt - 1), self.max_backoff_s)
        digest = hashlib.blake2b(
            repr((key, attempt)).encode(), digest_size=8
        ).digest()
        jitter = 0.75 + 0.5 * (int.from_bytes(digest, "big") / 2**64)
        return min(base * jitter, self.max_backoff_s)

    def to_dict(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "factor": self.factor,
            "max_backoff_s": self.max_backoff_s,
        }


def default_worker_id() -> str:
    """``host:pid`` — unique per worker process on a shared state dir."""
    return f"{socket.gethostname()}:{os.getpid()}"


class JobManager:
    """Store-backed job table + shared work queue + worker pool.

    Parameters
    ----------
    datasets:
        The registry job specs resolve their ``dataset`` ids against.
    cache:
        Result cache override.  Defaults to the store bundle's result
        store (durable bundles share one cache across processes).
    stores:
        The :class:`~repro.service.store.ServiceStores` bundle to run
        on.  Omitted → a fresh in-memory bundle (single-process
        behaviour).  Pass the same durable bundle (or one opened on the
        same state dir) to several managers/processes to scale out.
    role:
        ``all`` (default) accepts and executes; ``frontend`` accepts
        and enqueues but runs no workers; ``worker`` executes but is
        not meant to take submissions.  Every role runs the orphan
        sweeper — any surviving process can recover a dead worker's
        jobs.
    worker_id:
        Lease-owner name for this manager's workers (default
        ``host:pid``).
    lease_s:
        Worker lease duration.  Heartbeats renew at ``lease_s / 3``; a
        running job whose lease is this stale is declared orphaned.
    orphan_requeue_budget:
        How many times an orphaned job may be re-enqueued before it is
        failed for good (independent of the crash-retry budget — losing
        a worker is not the job's fault).
    workers:
        Worker thread count (ignored for ``role='frontend'``).
    backend:
        Execution backend name handed to every solver run
        (``serial``/``process``/``remote``); a job spec that
        pins ``backend=`` overrides it per job.
    remote_workers:
        Remote worker-agent addresses (``'host:port,host:port'`` or a
        list) handed to the ``remote`` backend; ignored by the local
        backends.  Defaults to the ``REPRO_REMOTE_WORKERS`` environment
        variable via :class:`~repro.mpc.remote.RemoteExecutor`.
    queue_limit:
        Maximum number of *queued* (not yet running) jobs; submissions
        beyond it raise :class:`QueueFullError`.  Ignored when
        ``stores`` is passed (the bundle's queue carries its own bound).
    default_timeout_s:
        Per-job wall-clock budget applied when the spec carries none.
    max_history:
        Maximum number of *terminal* jobs retained for ``GET /jobs``;
        beyond it the oldest terminal jobs (and their result payloads
        and run logs) are evicted.  Queued and running jobs never are.
    retry_policy:
        Default :class:`RetryPolicy` for crashed jobs; a job spec's
        ``max_retries`` overrides the budget (backoff shape stays the
        policy's).  Defaults to no retries.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or spec) applied to
        every solver run — the chaos path for the executor and machine
        layers.  Service-layer faults live in the HTTP front-end.
    stop_timeout_s:
        Per-thread join budget in :meth:`stop`; workers that miss it
        are reported as stuck instead of silently discarded.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` this manager
        feeds (a fresh one per manager when omitted, so two servers in
        one process never mix counters).  It is the ambient registry
        of every job's solve, so solver-level metrics stream in live;
        the manager's admission, retry and orphan tallies are counters
        in it; the result cache's counts and the queue depth are
        mirrored in at every :meth:`sync_metrics` call — which the
        HTTP layer makes before serving ``GET /metrics`` or the
        ``metrics`` block of ``GET /stats``.
    """

    def __init__(
        self,
        datasets: DatasetRegistry,
        cache: Optional[ResultCache] = None,
        *,
        stores: Optional[ServiceStores] = None,
        role: str = "all",
        worker_id: Optional[str] = None,
        lease_s: float = 15.0,
        orphan_requeue_budget: int = 5,
        workers: int = 2,
        backend: str = "serial",
        remote_workers=None,
        queue_limit: int = 64,
        default_timeout_s: Optional[float] = None,
        max_history: int = 1024,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
        stop_timeout_s: float = 30.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")
        if role != "frontend" and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_history < 1:
            raise ValueError(f"max_history must be >= 1, got {max_history}")
        if stop_timeout_s <= 0:
            raise ValueError(f"stop_timeout_s must be > 0, got {stop_timeout_s}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        if orphan_requeue_budget < 0:
            raise ValueError(
                f"orphan_requeue_budget must be >= 0, got {orphan_requeue_budget}"
            )
        self.datasets = datasets
        self.role = role
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.lease_s = float(lease_s)
        self.orphan_requeue_budget = int(orphan_requeue_budget)
        if stores is None:
            stores = open_stores(queue_limit=queue_limit)
            stores.datasets = datasets.store
            if cache is not None:
                stores.results = cache
        self.stores = stores
        self._store = stores.jobs
        self._wq = stores.work_queue
        self.cache = cache if cache is not None else stores.results
        self.backend = backend
        self.remote_workers = remote_workers
        #: last-seen remote pool shape + summed dispatch/recovery
        #: counters across this manager's remote-backend jobs (under
        #: ``_lock``); surfaced by /healthz and /v1/stats
        self._remote_pool: Optional[dict] = None
        self._remote_totals: Dict[str, int] = {}
        self.queue_limit = self._wq.limit
        self.workers = 0 if role == "frontend" else workers
        self.default_timeout_s = default_timeout_s
        self.max_history = max_history
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.faults = FaultPlan.from_spec(faults)
        self.stop_timeout_s = float(stop_timeout_s)
        self.metrics = m = metrics if metrics is not None else MetricsRegistry()
        self._job_latency = m.histogram(
            "repro_job_latency_seconds",
            "started-to-terminal wall-clock per executed (non-cached) job",
            labels=("algorithm",),
        )
        # admission, retry and orphan tallies: the registry counters are
        # the tallies, incremented where the event happens; stats()
        # reads them back
        self._submitted = m.counter(
            "repro_jobs_submitted_total", "jobs admitted (cache hits included)")
        self._rejected = m.counter(
            "repro_jobs_rejected_total", "submissions refused by the bounded queue")
        self._retries = m.counter(
            "repro_job_retries_total", "crashed-job retries scheduled")
        self._jobs_recovered = m.counter(
            "repro_jobs_recovered_total", "jobs that succeeded after >=1 retry")
        self._jobs_exhausted = m.counter(
            "repro_jobs_exhausted_total", "jobs that failed with their retry budget spent")
        self._orphaned = m.counter(
            "repro_jobs_orphaned_total",
            "running jobs whose worker lease expired (worker lost)")
        self._orphans_requeued = m.counter(
            "repro_jobs_orphan_requeued_total",
            "orphaned jobs re-enqueued for another worker")
        self._orphans_exhausted = m.counter(
            "repro_jobs_orphan_exhausted_total",
            "orphaned jobs failed with the requeue budget spent")

        #: the cancel event of each job this manager holds a lease on
        #: (set by the heartbeat or an in-process cancel); a job's state
        #: lives only in its store record
        self._leases: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        #: notified after each terminal write by this process, so
        #: :meth:`wait` wakes at once; ``_terminal_writes`` counts them
        self._terminal = threading.Condition()
        self._terminal_writes = 0
        self._threads: List[threading.Thread] = []
        self._aux_threads: List[threading.Thread] = []
        self._stuck_threads: List[threading.Thread] = []
        self._retry_timers: List[threading.Timer] = []
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()
        self._started = False
        #: submissions per algorithm (under _lock; no registry family)
        self._by_algorithm: Dict[str, int] = {}
        #: recent service-layer fault events (worker_lost / orphan_requeue)
        self.fault_events: "deque[FaultEvent]" = deque(maxlen=256)
        #: wall stamps, for display in stats()
        self._last_retry_at: Optional[float] = None
        self._last_recovery_at: Optional[float] = None
        #: monotonic stamps, for interval math (immune to clock jumps)
        self._last_retry_mono: Optional[float] = None
        self._last_recovery_mono: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "JobManager":
        """Spawn the worker pool, heartbeat, and orphan sweeper
        (idempotent); returns ``self``.

        On a durable store this first runs a startup recovery pass:
        RUNNING jobs with expired leases (their worker died with the
        previous process) are re-enqueued, and queued records stranded
        outside the work queue are re-pushed — which is how a restart
        on the same state directory resumes exactly where it stopped.
        """
        if self._started:
            return self
        self._started = True
        self._stop.clear()
        recovered = self.recover_now(startup=True)
        if recovered["orphaned"] or recovered["stranded_requeued"]:
            _log.info(
                "startup recovery",
                extra={"worker_id": self.worker_id, **recovered},
            )
        if self.role in ("all", "worker"):
            for i in range(self.workers):
                t = threading.Thread(
                    target=self._worker_loop, name=f"repro-job-worker-{i}", daemon=True
                )
                t.start()
                self._threads.append(t)
            hb = threading.Thread(
                target=self._heartbeat_loop, name="repro-job-heartbeat", daemon=True
            )
            hb.start()
            self._aux_threads.append(hb)
        sweeper = threading.Thread(
            target=self._sweep_loop, name="repro-orphan-sweeper", daemon=True
        )
        sweeper.start()
        self._aux_threads.append(sweeper)
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop the pool.  Queued jobs stay queued in the store (drained
        on restart); the running job, if any, finishes first.

        With ``wait=True``, each worker gets :attr:`stop_timeout_s` to
        join.  Workers that miss the deadline are *not* silently
        discarded: a :class:`RuntimeWarning` names them and they stay
        visible as ``stuck_workers`` in :meth:`stats` until they
        actually exit.  Pending retry timers are cancelled; their jobs
        stay ``queued`` in the store and re-enter via startup recovery.
        """
        self._stop.set()
        self._resume.set()
        with self._lock:
            timers, self._retry_timers = self._retry_timers, []
        for timer in timers:
            timer.cancel()
        stuck: List[threading.Thread] = []
        if wait:
            for t in self._threads:
                t.join(timeout=self.stop_timeout_s)
                if t.is_alive():
                    stuck.append(t)
            if stuck:
                warnings.warn(
                    f"JobManager.stop(): {len(stuck)} worker(s) still alive "
                    f"after {self.stop_timeout_s}s: "
                    f"{', '.join(t.name for t in stuck)} — the running job "
                    "is not round-barrier-interruptible; it will finish (or "
                    "leak) in the background",
                    RuntimeWarning,
                    stacklevel=2,
                )
            for t in self._aux_threads:
                t.join(timeout=self.stop_timeout_s)
        with self._lock:
            # forget clean exits; remember the stragglers for stats()
            self._stuck_threads = [
                t for t in self._stuck_threads + stuck if t.is_alive()
            ]
        self._threads = []
        self._aux_threads = []
        self._started = False

    def pause(self) -> None:
        """Stop popping new jobs (running jobs finish).  For drains,
        admission-control tests, and maintenance windows."""
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec, trace: Optional[TraceContext] = None) -> JobRecord:
        """Admit a job: cache hit → instantly ``done``; else persist and
        enqueue.  Returns the stored record.

        ``trace`` is the submitting request's context (the HTTP layer
        passes the parsed/minted ``traceparent``); the job becomes a
        child of it, so the whole solver run shares the request's trace
        id.  A fresh root is minted when omitted.

        Raises :class:`UnknownDatasetError` for an unregistered dataset,
        :class:`ValueError` for invalid parameters, and
        :class:`QueueFullError` when the queue is at capacity.
        """
        dataset = self.datasets.get(spec.dataset)
        if spec.k > dataset.n:
            raise ValueError(
                f"k={spec.k} exceeds dataset size n={dataset.n} ({dataset.id})"
            )
        if spec.warm_start and dataset.parent is None:
            raise ValueError(
                f"warm_start requires an append-chained dataset version; "
                f"{dataset.id} (kind={dataset.kind!r}) has no parent"
            )
        if spec.timeout_s is None and self.default_timeout_s is not None:
            spec.timeout_s = float(self.default_timeout_s)
        base = trace if trace is not None else TraceContext.generate()

        job_trace = base.child("job")
        now = time.time()
        job = JobRecord(
            id=self._store.next_job_id(),
            spec=spec.to_dict(),
            created_at=now,
            queued_at=now,
            trace_id=job_trace.trace_id,
            traceparent=job_trace.to_traceparent(),
        )
        self._submitted.inc()
        with self._lock:
            self._by_algorithm[spec.algorithm] = (
                self._by_algorithm.get(spec.algorithm, 0) + 1
            )

        hit = self.cache.get(spec.cache_key(dataset.fingerprint))
        if hit is not None:
            job.result, job.run_log = hit
            job.cached = True
            job.state = JobState.DONE.value
            job.finished_at = time.time()
            job = self._store.create(job)
            self._ended()
            _log.info(
                "job served from cache",
                extra={"job_id": job.id, "trace_id": job.trace_id,
                       "algorithm": spec.algorithm},
            )
            return job

        job = self._store.create(job)
        try:
            self._wq.push(job.id)
        except QueueFullError:
            self._rejected.inc()
            self._store.delete(job.id)
            _log.warning(
                "job rejected: queue full",
                extra={"trace_id": base.trace_id, "algorithm": spec.algorithm,
                       "queue_limit": self.queue_limit},
            )
            raise
        _log.info(
            "job queued",
            extra={"job_id": job.id, "trace_id": job.trace_id,
                   "algorithm": spec.algorithm, "dataset": spec.dataset},
        )
        return job

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """The job's current record (any process may have written it)."""
        return self._store.get(job_id)

    def list_jobs(self, state: Optional[JobState] = None) -> List[JobRecord]:
        """Every job's record, oldest first."""
        return self.list_records(state)[0]

    def list_records(
        self,
        state: Optional[JobState] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[List[JobRecord], Optional[str]]:
        """Paginated store records for the HTTP list endpoint (stable
        submit-time ordering; ``cursor`` is the last-seen job id)."""
        return self._store.list(
            state=state.value if state is not None else None,
            limit=limit,
            cursor=cursor,
        )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state; returns its record.

        A terminal write by this process wakes the wait at once; one by
        another process on the shared store is seen at the next re-read,
        at most 50 ms later.
        """
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            with self._terminal:
                writes = self._terminal_writes
            job = self._store.get(job_id)
            if job.terminal:
                return job
            left = 0.05 if deadline is None else deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
            with self._terminal:
                self._terminal.wait_for(
                    lambda: self._terminal_writes != writes, min(0.05, left)
                )

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; returns the job's record.

        A queued job ends ``cancelled`` in the same store write (claims
        refuse a cancel-requested job, so a worker can never start it);
        a running job is unwound at its next round barrier — the owning
        worker learns about the request via its lease's cancel event
        (same process) or its next heartbeat (another process).
        Terminal jobs are returned unchanged.
        """
        job = self._store.set_cancel_requested(job_id)
        with self._lock:
            event = self._leases.get(job_id)
        if event is not None:
            event.set()
        if job.terminal:
            self._ended()
        return job

    def stats(self) -> dict:
        """Operational counters for ``GET /stats``.

        The ``*_total`` keys share names with their ``repro_*``
        Prometheus counterparts on ``GET /metrics`` (one naming scheme,
        two surfaces — see ``docs/metrics.md``): the admission, retry
        and orphan tallies are read from those registry counters, so
        the two endpoints can never disagree.

        Queue depth and per-state counts come from the shared store, so
        on a durable bundle they are fleet-wide; the admission and
        recovery tallies are this manager's own.
        """
        by_state: Dict[str, int] = {s.value: 0 for s in JobState}
        by_state.update(self._store.count_by_state())
        queue_depth = self._wq.depth()
        cache = self.cache.stats()
        remote = self.remote_status()
        with self._lock:
            self._stuck_threads = [t for t in self._stuck_threads if t.is_alive()]
            out = {
                "queue_depth": queue_depth,
                "queue_limit": self.queue_limit,
                "max_history": self.max_history,
                "workers": self.workers,
                "backend": self.backend,
                "role": self.role,
                "worker_id": self.worker_id,
                "paused": not self._resume.is_set(),
                "store": {
                    "backend": self.stores.backend,
                    "state_dir": self.stores.state_dir,
                },
                "jobs_submitted_total": int(self._submitted.value),
                "jobs_rejected_total": int(self._rejected.value),
                "jobs_by_state": by_state,
                "jobs_by_algorithm": dict(self._by_algorithm),
                "cache": cache,
                "stuck_workers": [t.name for t in self._stuck_threads],
                "retry": {
                    "policy": self.retry_policy.to_dict(),
                    "retries_total": int(self._retries.value),
                    "jobs_recovered_total": int(self._jobs_recovered.value),
                    "jobs_exhausted_total": int(self._jobs_exhausted.value),
                    "last_retry_at": self._last_retry_at,
                },
                "orphans": {
                    "lease_s": self.lease_s,
                    "requeue_budget": self.orphan_requeue_budget,
                    "orphaned_total": int(self._orphaned.value),
                    "requeued_total": int(self._orphans_requeued.value),
                    "exhausted_total": int(self._orphans_exhausted.value),
                    "last_recovery_at": self._last_recovery_at,
                    "recent_events": [
                        e.to_dict() for e in list(self.fault_events)[-8:]
                    ],
                },
            }
            if remote is not None:
                out["remote"] = remote
            if self.faults is not None:
                out["faults"] = self.faults.describe()
            return out

    def sync_metrics(self) -> MetricsRegistry:
        """Mirror state other components own into the registry: the
        result cache's counts and the queue depth (called right before
        every scrape).  Returns the registry for chaining."""
        m = self.metrics
        cache = self.cache.stats()
        m.counter("repro_cache_hits_total", "result-cache hits").set_total(
            cache["hits_total"]
        )
        m.counter("repro_cache_misses_total", "result-cache misses").set_total(
            cache["misses_total"]
        )
        m.gauge("repro_cache_hit_ratio", "hits / (hits + misses)").set(
            cache["hit_ratio"]
        )
        m.gauge("repro_cache_entries", "live result-cache entries").set(
            cache["entries"]
        )
        m.gauge("repro_queue_depth", "jobs waiting in the bounded queue").set(
            self._wq.depth()
        )
        return m

    def recent_retry_activity(self, window_s: float = 60.0) -> bool:
        """True when a retry fired within the last ``window_s`` seconds
        (the health endpoint's "degraded" signal).

        Interval math is done on :func:`time.monotonic` stamps — a
        wall-clock jump (NTP step, manual reset) can neither flip the
        service to degraded nor mask real retry activity.  The wall
        stamp in :meth:`stats` remains display-only.
        """
        with self._lock:
            last = self._last_retry_mono
        return last is not None and (time.monotonic() - last) <= window_s

    def recent_orphan_activity(self, window_s: float = 60.0) -> bool:
        """True when an orphan was recovered within ``window_s`` seconds
        (a worker died recently — the health endpoint reports degraded)."""
        with self._lock:
            last = self._last_recovery_mono
        return last is not None and (time.monotonic() - last) <= window_s

    # -- worker pool --------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            self._resume.wait(timeout=0.1)
            if not self._resume.is_set():
                continue
            job_id = self._wq.pop(timeout=0.1)
            if job_id is None:
                continue
            try:
                self._execute(job_id)
            except Exception:  # pragma: no cover - defensive: keep the pool alive
                _log.warning(
                    "worker loop error",
                    extra={"job_id": job_id,
                           "reason": traceback.format_exc().strip().splitlines()[-1]},
                )

    def _execute(self, job_id: str) -> None:
        """Claim a popped id and run it; losing the claim is normal
        (another worker won the race, or the job was cancelled)."""
        job = self._store.claim(job_id, self.worker_id, time.time() + self.lease_s)
        if job is None:
            # a queued record carrying a cancel request (written by an
            # older release, which cancelled in two writes) ends here;
            # claims refuse it, so it would otherwise sit queued forever
            if self._store.end_queued(job_id) is not None:
                self._ended()
            return
        cancel = threading.Event()
        with self._lock:
            self._leases[job_id] = cancel
        try:
            self._run_job(job, cancel)
        finally:
            with self._lock:
                self._leases.pop(job_id, None)

    def _ended(self) -> None:
        """After a terminal write: evict the oldest terminal jobs beyond
        ``max_history`` (the store prunes in submission order; queued
        and running jobs are never touched) and wake :meth:`wait`."""
        self._store.prune_terminal(self.max_history)
        with self._terminal:
            self._terminal_writes += 1
            self._terminal.notify_all()

    def _run_job(self, job: JobRecord, cancel: threading.Event) -> None:
        spec = JobSpec.from_dict(job.spec)
        trace = TraceContext.from_traceparent(job.traceparent)
        _log.info(
            "job running",
            extra={"job_id": job.id, "trace_id": job.trace_id,
                   "algorithm": spec.algorithm, "attempt": job.attempt,
                   "worker_id": self.worker_id},
        )
        try:
            dataset = self.datasets.get(spec.dataset)
            with use_trace(trace):
                warm = (
                    self._resolve_warm(spec, dataset, cancel_event=cancel)
                    if spec.warm_start
                    else None
                )
                payload, run_log = execute_job(
                    spec,
                    dataset,
                    backend=self.backend,
                    remote_workers=self.remote_workers,
                    cancel_event=cancel,
                    job_id=job.id,
                    faults=self.faults,
                    metrics=self.metrics,
                    trace=trace,
                    warm=warm,
                )
        except JobCancelled:
            state, error, produced = JobState.CANCELLED, None, None
        except JobTimeout:
            state = JobState.FAILED
            error = f"timed out after {spec.timeout_s}s (round-barrier check)"
            produced = None
        except Exception:
            # crashes (unlike cancellations and timeouts, which are
            # decisions) are retryable: re-enqueue with backoff while
            # the budget lasts, terminal FAILED only after exhaustion
            error = traceback.format_exc()
            if self._schedule_retry(job, spec, cancel, error):
                return
            state, produced = JobState.FAILED, None
        else:
            state, error, produced = JobState.DONE, None, (payload, run_log)
            self._note_remote(payload)
            self._note_warm(payload)
            self.cache.put(spec.cache_key(dataset.fingerprint), payload, run_log)
        self._commit_terminal(job, spec, state, error, produced)

    def _resolve_warm(
        self,
        spec: JobSpec,
        dataset,
        cancel_event: Optional[threading.Event] = None,
    ) -> dict:
        """Resolve the parent version's solution for a warm-start job.

        The parent result is looked up under its own cache key (a
        warm-start spec if the parent is itself a chained version, a
        cold one at the chain root) and computed on the spot on a miss
        — recursing to the root if nothing along the chain is cached.
        Each ancestor result lands in the cache under its own key, so
        the warm job's payload (and its own oracle ledger, which covers
        only its own run) is path-independent: identical whether the
        chain was solved version-by-version or materialized here in one
        go after a restart on a cold cache.
        """
        parent = self.datasets.get(dataset.parent)
        parent_spec = JobSpec(
            algorithm=spec.algorithm,
            dataset=parent.id,
            k=spec.k,
            eps=spec.eps,
            machines=spec.machines,
            seed=spec.seed,
            partition=spec.partition,
            trim_mode=spec.trim_mode,
            constants=spec.constants,
            warm_start=parent.parent is not None,
        )
        key = parent_spec.cache_key(parent.fingerprint)
        hit = self.cache.get(key)
        if hit is not None:
            payload = hit[0]
        else:
            warm = (
                self._resolve_warm(parent_spec, parent, cancel_event=cancel_event)
                if parent_spec.warm_start
                else None
            )
            payload, run_log = execute_job(
                parent_spec,
                parent,
                backend=self.backend,
                remote_workers=self.remote_workers,
                cancel_event=cancel_event,
                faults=self.faults,
                metrics=self.metrics,
                warm=warm,
            )
            self.cache.put(key, payload, run_log)
        record = payload["record"]
        if spec.algorithm == "kcenter":
            centers, objective = record["centers"], record["radius"]
        else:
            centers, objective = record["ids"], record["diversity"]
        return {
            "dataset": parent.id,
            "fingerprint": parent.fingerprint,
            "base_n": int(parent.n),
            "centers": centers,
            "objective": float(objective),
        }

    def _note_warm(self, payload: dict) -> None:
        """Stream one finished warm-start job into the metrics registry."""
        drift = payload.get("drift")
        if drift is None:
            return
        self.metrics.counter(
            "repro_warm_start_jobs_total", "warm-start re-solve jobs completed"
        ).inc()
        ratio = drift.get("drift_ratio")
        if ratio is not None:
            self.metrics.histogram(
                "repro_warm_start_drift_ratio",
                "child/parent objective ratio per warm-start job",
                buckets=(0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0),
            ).observe(float(ratio))

    def _note_remote(self, payload: dict) -> None:
        """Fold one remote-backend job's pool shape and dispatch/recovery
        counters into the manager tallies behind ``remote_status()``."""
        pool = payload.get("remote_pool")
        if pool is None:
            return
        stats = (payload.get("recovery") or {}).get("executor") or {}
        with self._lock:
            self._remote_pool = pool
            for key, value in stats.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if key == "effective_workers":
                    self._remote_totals[key] = int(value)
                else:
                    self._remote_totals[key] = (
                        self._remote_totals.get(key, 0) + int(value)
                    )

    def remote_status(self) -> Optional[dict]:
        """Remote-pool view for ``/healthz`` and ``/v1/stats``: the
        last finished remote job's :meth:`~repro.mpc.remote.RemoteExecutor.
        pool_status` plus counters summed across this manager's remote
        jobs.  ``None`` until a remote-backend job has run (and always
        ``None`` on purely local managers)."""
        with self._lock:
            if self._remote_pool is None:
                if self.backend != "remote":
                    return None
                return {
                    "pool": None,
                    "totals": {},
                    "workers": self.remote_workers,
                }
            return {
                "pool": dict(self._remote_pool),
                "totals": dict(self._remote_totals),
                "workers": self.remote_workers,
            }

    def _commit_terminal(
        self,
        job: JobRecord,
        spec: JobSpec,
        state: JobState,
        error: Optional[str],
        produced: Optional[tuple],
    ) -> None:
        """CAS the claimed job to its terminal state in the store.

        Losing the CAS means the sweeper declared us dead mid-run and
        re-enqueued the job; the result is discarded — harmless, because
        the re-run is bit-identical by the determinism guarantee.
        """
        job.state = state.value
        job.error = error
        job.finished_at = time.time()
        if produced is not None:
            job.result, job.run_log = produced
        if self._store.finish(job, self.worker_id) is None:
            _log.warning(
                "job finish lost its lease (declared orphaned mid-run); "
                "result discarded — the requeued run is bit-identical",
                extra={"job_id": job.id, "worker_id": self.worker_id},
            )
            return
        if produced is not None and job.attempt > 0:
            self._jobs_recovered.inc()
        self._ended()
        self._job_latency.labels(spec.algorithm).observe(
            job.finished_at - job.started_at
        )
        _log.info(
            f"job {state.value}",
            extra={"job_id": job.id, "trace_id": job.trace_id,
                   "algorithm": spec.algorithm, "attempt": job.attempt,
                   **({"reason": error.strip().splitlines()[-1]}
                      if error else {})},
        )

    # -- heartbeat + orphan recovery ----------------------------------------

    def _heartbeat_loop(self) -> None:
        """Renew the lease on every job this manager is running, and
        pick up cross-process cancel requests."""
        interval = max(0.2, self.lease_s / 3.0)
        while not self._stop.wait(interval):
            with self._lock:
                held = list(self._leases.items())
            for job_id, cancel in held:
                rec = self._store.heartbeat(
                    job_id, self.worker_id, time.time() + self.lease_s
                )
                # a lost lease (the sweeper took it) is decided by the
                # CAS at finish
                if rec is not None and rec.cancel_requested:
                    cancel.set()

    def _sweep_loop(self) -> None:
        interval = max(0.5, self.lease_s / 3.0)
        while not self._stop.wait(interval):
            try:
                self.recover_now()
            except Exception:  # pragma: no cover - defensive: keep sweeping
                _log.warning(
                    "orphan sweep failed",
                    extra={"reason": traceback.format_exc().strip().splitlines()[-1]},
                )

    def recover_now(self, startup: bool = False) -> dict:
        """One orphan-recovery pass (the sweeper calls this; tests may
        call it directly to avoid waiting out the interval).

        Expired-lease RUNNING jobs are re-enqueued (or failed once the
        orphan budget is spent), and queued records missing from the
        work queue — a process died between persisting and pushing, or
        a retry timer died with its process — are re-pushed.  Returns
        ``{"orphaned", "requeued", "stranded_requeued"}`` counts.
        """
        now = time.time()
        recovered = self._store.recover_orphans(now, self.orphan_requeue_budget)
        requeued = 0
        for rec in recovered:
            detail = rec.attempts[-1]["error"] if rec.attempts else "lease expired"
            events = [FaultEvent(
                layer="service", kind="worker_lost", injected=False,
                target=rec.id, attempt=rec.attempt, detail=detail, time=now,
            )]
            if rec.state == JobState.QUEUED.value:
                try:
                    self._wq.push(rec.id)
                    pushed = True
                except QueueFullError:
                    pushed = False  # the stranded sweep below retries later
                requeued += 1 if pushed else 0
                events.append(FaultEvent(
                    layer="service", kind="orphan_requeue", injected=False,
                    target=rec.id, attempt=rec.attempt,
                    detail=f"re-enqueued (attempt {rec.attempt})", time=now,
                ))
            self._orphaned.inc()
            if rec.state == JobState.QUEUED.value:
                self._orphans_requeued.inc()
            elif rec.state == JobState.FAILED.value:
                self._orphans_exhausted.inc()
            with self._lock:
                self.fault_events.extend(events)
                self._last_recovery_at = now
                self._last_recovery_mono = time.monotonic()
            _log.warning(
                "orphaned job recovered",
                extra={"job_id": rec.id, "state": rec.state,
                       "attempt": rec.attempt, "detail": detail},
            )
        if any(rec.terminal for rec in recovered):
            self._ended()
        # a submission pushes right after persisting, so outside startup
        # only records queued for a while are considered stranded
        stranded = ensure_queued_jobs_enqueued(
            self._store, self._wq,
            older_than_s=0.0 if startup else max(5.0, self.lease_s),
            now=now,
        )
        return {
            "orphaned": len(recovered),
            "requeued": requeued,
            "stranded_requeued": len(stranded),
        }

    # -- retry --------------------------------------------------------------

    def _schedule_retry(
        self, job: JobRecord, spec: JobSpec, cancel: threading.Event, error: str
    ) -> bool:
        """Re-enqueue a crashed job after backoff if its budget allows.

        Returns True when the retry was written (the job goes back to
        ``queued``, or ends ``cancelled`` when a cancel request landed
        since the claim; the caller must NOT mark it terminal).
        """
        if cancel.is_set() or self._stop.is_set():
            return False
        budget = (
            spec.max_retries if spec.max_retries is not None
            else self.retry_policy.max_retries
        )
        if job.attempt >= budget:
            if budget > 0:
                self._jobs_exhausted.inc()
            return False
        delay = self.retry_policy.delay(job.attempt + 1, key=job.id)
        summary = error.strip().splitlines()[-1] if error.strip() else "unknown error"
        now = time.time()
        job.attempts.append(
            {
                "attempt": job.attempt,
                "error": summary,
                "failed_at": now,
                "backoff_s": round(delay, 4),
            }
        )
        job.attempt += 1
        job.state = JobState.QUEUED.value
        job.started_at = None
        job.queued_at = now
        requeued = self._store.finish(job, self.worker_id)
        if requeued is None:
            # lease lost mid-crash: the sweeper owns this job's recovery
            return True
        if requeued.terminal:
            self._ended()
            return True
        self._retries.inc()
        with self._lock:
            self._last_retry_at = now
            self._last_retry_mono = time.monotonic()
            timer = threading.Timer(delay, self._requeue, args=(job.id, summary))
            timer.daemon = True
            self._retry_timers.append(timer)
        _log.warning(
            "job crashed; retry scheduled",
            extra={"job_id": job.id, "trace_id": job.trace_id,
                   "attempt": job.attempt, "backoff_s": round(delay, 4),
                   "reason": summary},
        )
        timer.start()
        return True

    def _requeue(self, job_id: str, last_error: str) -> None:
        """Timer callback: push a retried job's id back on the queue."""
        with self._lock:
            self._retry_timers = [
                t for t in self._retry_timers if t.is_alive()
            ]
        try:
            if self._store.get(job_id).state != JobState.QUEUED.value:
                return  # cancelled (or recovered elsewhere) while backing off
        except UnknownJobError:
            return
        try:
            self._wq.push(job_id)
        except QueueFullError:
            abandoned = self._store.end_queued(
                job_id, f"retry abandoned (queue full) after: {last_error}"
            )
            if abandoned is not None:
                self._ended()
