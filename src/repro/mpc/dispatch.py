"""The chunk-dispatch core shared by the process and remote backends.

Both backends run a ``map_machines`` batch the same way: cut the task
indices into strided chunks, one per worker; send each chunk as a
``run`` request, with its span metadata built in the driver; sort the
answers into ok, fatal or lost; run the lost chunks again, alone, in
bounded waves; and when the workers cannot finish, take the batch one
rung down the degradation ladder.  Each worker returns its machines'
values, RNG states and oracle deltas, which the driver replays, so every
rung is bit-identical to a serial run.

:class:`ChunkDispatcher` is that loop, written once.  The process pool
(:class:`~repro.mpc.executor.ProcessExecutor`) and the socket agents
(:class:`~repro.mpc.remote.RemoteExecutor`) are transports behind a few
hooks: how wide a batch is, which worker takes each chunk of a wave,
how one wave of frames runs, what to wait before a retry, and where a
failed batch goes next.  On the worker side, :func:`run_chunk` is the
one chunk runner both transports call.

A ``run`` request is ``{"op": "run", "blob", "inject", "delay_s"}``:
``blob`` is a codec-encoded ``(meta, fn, args)`` — ``meta`` the chunk's
span metadata, ``fn``/``args`` what the worker runs as ``[fn(a) for a
in args]`` — and ``inject``/``delay_s`` an injected fault the worker
enacts.  The reply is one status byte (0 ok, 1 the task raised or its
result cannot be pickled) and a plain pickle of ``(values, span)`` or of
the traceback text.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
import weakref
from collections import namedtuple
from typing import Callable, List, Optional, Sequence

from repro.mpc.codec import MissingReference, dumps_task, loads_task
from repro.obs.events import ExecSpanRecord, FaultEvent
from repro.obs.logging import get_logger

_log = get_logger("repro.mpc.dispatch")

#: FaultEvent kind of each injected fault a worker enacts
FAULT_KINDS = {
    "kill": "worker_kill",
    "corrupt": "payload_corrupt",
    "delay": "worker_delay",
    "drop": "connection_drop",
}


class _WorkerFailure(Exception):
    """Workers cannot finish a batch: a task raised a real exception,
    the task could not be sent, no worker is left, or lost chunks
    outlived the retry budget.  The message aggregates *every* failed
    chunk's reason."""


def _counting_layers(metric) -> list:
    """Every CountingOracle in the metric's wrapper chain (outermost first)."""
    layers = []
    seen = set()
    while metric is not None and id(metric) not in seen:
        seen.add(id(metric))
        if hasattr(metric, "evaluations") and hasattr(metric, "calls"):
            layers.append(metric)
        metric = getattr(metric, "inner", None)
    return layers


class _MachineTask:
    """``map_machines`` work in indexed form: ``task(i)`` runs ``fn`` on
    machine ``i`` and returns its value, the machine's RNG state and the
    CountingOracle deltas — what the driver replays."""

    def __init__(self, fn, machines: Sequence, metric) -> None:
        self.fn = fn
        self.machines = machines
        self.metric = metric

    def __call__(self, i: int):
        mach = self.machines[i]
        counting = _counting_layers(self.metric)
        before = [(c.calls, c.evaluations) for c in counting]
        value = self.fn(mach)
        deltas = [
            (c.calls - b_calls, c.evaluations - b_evals)
            for c, (b_calls, b_evals) in zip(counting, before)
        ]
        return value, mach.rng.bit_generator.state, deltas


def _chunk_payload(task, indices: List[int]):
    """``(fn, args)`` a worker runs as ``[fn(a) for a in args]`` to
    compute ``task`` at ``indices``; a machine task is cut down to the
    machines at ``indices``, so a frame carries just those."""
    if isinstance(task, _MachineTask):
        machines = [task.machines[i] for i in indices]
        return _MachineTask(task.fn, machines, task.metric), range(len(machines))
    return task, list(indices)


def _replay(packed: Sequence, machines: Sequence, metric) -> list:
    """Apply what workers returned for ``machines`` — each machine's RNG
    state and the CountingOracle deltas — and return the values."""
    counting = _counting_layers(metric)
    values = []
    for mach, (value, rng_state, deltas) in zip(machines, packed):
        mach.rng.bit_generator.state = rng_state
        for layer, (d_calls, d_evals) in zip(counting, deltas):
            layer.calls += d_calls
            layer.evaluations += d_evals
        values.append(value)
    return values


# -- the worker side ------------------------------------------------------------


def run_chunk(request: dict, resolve: Callable) -> bytes:
    """Run one ``run`` request on a worker and return the reply to send.

    Decodes ``(meta, fn, args)`` with ``resolve`` for the codec's
    persistent references, runs ``[fn(a) for a in args]`` and stamps
    ``meta`` with this process's pid and the compute interval.  Every
    failure becomes a traceback reply — the driver's serial re-run
    raises it again with a real traceback — except a
    :class:`~repro.mpc.codec.MissingReference`, which the caller
    answers.  An injected ``delay`` sleeps first and an injected
    ``corrupt`` garbles the reply; the transport enacts the rest.
    """
    inject = request.get("inject")
    if inject == "delay":
        time.sleep(request.get("delay_s", 0.0))
    try:
        meta, fn, args = loads_task(request["blob"], resolve)
        t_start = time.perf_counter()
        values = [fn(a) for a in args]
        span = dict(meta, os_pid=os.getpid(), start_time=t_start,
                    end_time=time.perf_counter())
        reply = b"\x00" + pickle.dumps((values, span), protocol=pickle.HIGHEST_PROTOCOL)
    except MissingReference:
        raise
    except BaseException:
        reply = b"\x01" + pickle.dumps(traceback.format_exc())
    if inject == "corrupt":  # bit-rot: bytes that cannot unpickle
        reply = reply[:1] + b"\xde\xad\xbe\xef" + reply[1:9]
    return reply


# -- the driver side ------------------------------------------------------------


def lost(worker, what: str, chunk: List[int]) -> tuple:
    """A ``("lost", reason)`` outcome for a chunk ``worker`` did not return."""
    return ("lost", f"worker {worker} {what} (chunk {chunk[:3]}…)")


def read_reply(reply, worker, chunk: List[int]) -> tuple:
    """Sort one worker's reply: ``("ok", (values, span))``, ``("fatal",
    traceback_text)``, or ``("lost", reason)`` when it does not decode."""
    try:
        data = pickle.loads(memoryview(reply)[1:])
    except Exception:
        return lost(worker, "returned an undecodable payload", chunk)
    return ("ok", data) if reply[0] == 0 else ("fatal", str(data))


#: one chunk of one wave: its slot, its task indices, the worker it goes
#: to and the ``run`` request that carries it
_Frame = namedtuple("_Frame", "slot chunk worker request")


class _Batch:
    """One dispatched ``map`` call: its number, its task, the cluster
    whose observers hear about it, and its results by chunk slot."""

    def __init__(self, no: int, task, cluster) -> None:
        self.no = no
        self.task = task
        self.cluster = cluster
        #: the metric chain the task runs on
        self.metric = (task.metric if isinstance(task, _MachineTask)
                       else getattr(cluster, "metric", None))
        #: the cluster's observer hub (``None`` without a cluster)
        self.obs = getattr(cluster, "obs", None)
        self.trace = self.obs.trace_parent() if self.obs is not None else None
        self.results: dict = {}


class ChunkDispatcher:
    """The batch loop of the process and remote executors.

    A batch of ``count`` tasks is cut into :meth:`_width` strided chunks,
    one per worker.  Each wave sends the pending chunks, one ``run``
    request each, and sorts the answers:

    1. **ok** — the chunk's values are kept (the first answer wins when
       a late one arrives too) and its timed span is merged into the
       batch's cluster as an :class:`~repro.obs.events.ExecSpanRecord`;
    2. **fatal** — the task raised.  That is deterministic, so the batch
       fails at once and degrades;
    3. **lost** — no answer, or one that does not decode.  The chunk
       alone runs again in the next wave, up to :attr:`chunk_retries`
       times; healthy chunks keep their results.

    A batch the workers cannot finish raises :class:`_WorkerFailure`
    inside; the public :meth:`map_indexed`/:meth:`map_machines` then
    record the reason in :attr:`degradations` and run the batch one rung
    down: on :meth:`_next_rung`'s executor, or serially in the driver.

    Every executor-layer fault and recovery goes to the observers of the
    cluster whose batch it was: :meth:`bind` keeps a weak set of the
    bound clusters, and a ``map_machines`` batch belongs to the cluster whose
    ``machines`` list it maps (a bare ``map_indexed`` to the cluster
    bound last).  Injected faults are decided here, from the seeded
    :class:`~repro.faults.FaultPlan`, so observers see them, and enacted
    by the worker.

    A subclass sets :attr:`layer` (the FaultEvent layer),
    :attr:`span_name`, :attr:`retry_kind`/:attr:`retry_target` (the
    recovery event of a rerun chunk) and :attr:`peers`, and implements
    the transport hooks :meth:`_width`, :meth:`_assign`, :meth:`_refs`,
    :meth:`_fault` and :meth:`_run_wave`, plus ``workers_lost`` and
    ``effective_workers()`` for :meth:`recovery_stats`.
    """

    layer = ""
    span_name = ""
    retry_kind = ""
    #: ``str.format`` template of a retry event's target (``slot``, ``head``)
    retry_target = ""
    #: who a task goes to, for the message when it cannot be sent
    peers = ""

    def __init__(self, faults=None, chunk_retries: int = 2) -> None:
        #: one batch at a time per executor
        self._lock = threading.RLock()
        #: the first-writer-wins result gate, which late answers reach
        #: from other threads while a batch holds :attr:`_lock`
        self._gate = threading.Lock()
        if chunk_retries < 0:
            raise ValueError(f"chunk_retries must be >= 0, got {chunk_retries}")
        self.faults = faults
        self.chunk_retries = int(chunk_retries)
        #: permanent degradation of this backend (set by a subclass)
        self.fallback_reason: Optional[str] = None
        #: per-batch degradation reasons (lower rungs taken and why)
        self.degradations: List[str] = []
        # recovery / injection counters (see recovery_stats())
        self.faults_injected = 0
        self.chunk_retries_used = 0
        self.serial_fallbacks = 0
        self.local_fallbacks = 0
        self.duplicate_results = 0
        self._batch_no = 0
        #: weak references to the bound clusters, in bind order
        self._clusters: List[weakref.ref] = []

    # -- lifecycle ------------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster: its batches' events go to its observers."""
        with self._lock:
            self._clusters = [ref for ref in self._clusters
                              if ref() is not None and ref() is not cluster]
            self._clusters.append(weakref.ref(cluster))

    def set_fault_plan(self, faults) -> None:
        """Install (or clear, with ``None``) the fault plan."""
        self.faults = faults

    def _bound(self) -> list:
        """The live bound clusters, the last bound one last."""
        with self._lock:
            return [c for c in (ref() for ref in self._clusters) if c is not None]

    def _cluster_for(self, task):
        """The cluster whose batch ``task`` is."""
        bound = self._bound()
        if isinstance(task, _MachineTask):
            for cluster in bound:
                if getattr(cluster, "machines", None) is task.machines:
                    return cluster
        return bound[-1] if bound else None

    def recovery_stats(self) -> dict:
        """Injection/recovery counters, for bench artifacts and the
        service's job payloads."""
        return {
            "faults_injected": self.faults_injected,
            "chunk_retries": self.chunk_retries_used,
            "serial_fallbacks": self.serial_fallbacks,
            "degradations": list(self.degradations),
            "workers_lost": self.workers_lost,
            "effective_workers": self.effective_workers(),
        }

    def _emit(self, cluster, kind: str, injected: bool, target: str = "",
              attempt: int = 0, detail: str = "") -> None:
        """Report a fault or recovery to ``cluster``'s observers.  A
        cluster still in its constructor has no hub yet: then the event
        is log-only."""
        obs = getattr(cluster, "obs", None)
        if obs is None:
            return
        obs.emit_fault(FaultEvent(
            layer=self.layer, kind=kind, injected=injected,
            round_no=getattr(cluster, "round_no", -1), target=target,
            attempt=attempt, detail=detail,
        ))

    # -- the ExecutionBackend surface -----------------------------------------

    def map_indexed(self, fn: Callable, count: int) -> list:
        """Evaluate ``fn(i)`` for ``i in range(count)`` on the workers, in
        index order; a batch they cannot take or finish runs one rung
        down (exceptions propagate from there)."""
        if count > 1 and self._width(count):
            try:
                return self._run_batch(fn, count)
            except _WorkerFailure as exc:
                self._degrade(fn, str(exc))
        rung = self._next_rung() if count > 1 else None
        return rung.map_indexed(fn, count) if rung else [fn(i) for i in range(count)]

    def map_machines(self, fn, machines: Sequence, metric=None) -> list:
        """Machine-aware dispatch with state synchronisation.

        Each worker returns ``(value, rng_state, oracle_deltas)`` for
        its machines; the driver replays the RNG states and counter
        deltas, so the run is bit-identical to a serial one — both the
        algorithmic results and the CountingOracle ledger.
        """
        count = len(machines)
        if count > 1 and self._width(count):
            task = _MachineTask(fn, machines, metric)
            try:
                packed = self._run_batch(task, count)
            except _WorkerFailure as exc:
                self._degrade(task, str(exc))
            else:
                return _replay(packed, machines, metric)
        rung = self._next_rung() if count > 1 else None
        if rung is not None:
            return rung.map_machines(fn, machines, metric=metric)
        return [fn(mach) for mach in machines]

    def _degrade(self, task, reason: str) -> None:
        """A batch failed on the workers; record it before the next rung
        runs it: a working :meth:`_next_rung` executor, else the driver."""
        self.degradations.append(reason)
        rung = self._next_rung()
        if rung is not None and rung.fallback_reason is None:
            self.local_fallbacks += 1
            kind = "local_fallback"
        else:
            self.serial_fallbacks += 1
            kind = "serial_fallback"
        self._emit(self._cluster_for(task), kind, injected=False, detail=reason)
        _log.warning(f"{self.layer} batch degraded",
                     extra={"reason": reason, "to": kind})

    # -- the batch loop -------------------------------------------------------

    def _run_batch(self, task: Callable, count: int) -> list:
        """Run ``task`` at ``range(count)`` as strided chunks, one per
        worker, and return the values in index order.

        Raises :class:`_WorkerFailure` when a task raises (at once: it
        is deterministic), cannot be sent, or lost chunks outlive the
        retry budget; its message names every failed chunk's reason.
        """
        with self._lock:
            width = self._width(count)
            if not width:
                raise _WorkerFailure(self.fallback_reason or "no live workers")
            self._batch_no += 1
            batch = _Batch(self._batch_no, task, self._cluster_for(task))
            pending = [(slot, list(range(slot, count, width))) for slot in range(width)]
            earlier: List[str] = []
            attempt = 0
            while True:
                frames = self._frames(batch, pending, attempt)
                if not frames:
                    raise _WorkerFailure("; ".join(earlier) or "no live workers")
                fatal: List[str] = []
                reasons: List[str] = []
                retry: List[_Frame] = []
                for frame, (status, payload) in zip(frames, self._run_wave(batch, frames)):
                    if status == "ok":
                        values, span = payload
                        if self._store(batch, frame.slot, values) and batch.obs is not None:
                            batch.obs.emit_exec_span(ExecSpanRecord(**span))
                    elif status == "fatal":
                        fatal.append(payload)
                    elif frame.slot not in batch.results:  # no late answer filled it
                        reasons.append(str(payload))
                        retry.append(frame)
                if fatal:
                    raise _WorkerFailure("; ".join(fatal + reasons))
                if not retry:
                    out: list = [None] * count
                    for slot in range(width):
                        out[slot::width] = batch.results[slot]
                    return out
                if attempt >= self.chunk_retries:
                    self._exhausted(len(retry))
                    raise _WorkerFailure(
                        "; ".join(earlier + reasons)
                        + f" (chunk retry budget {self.chunk_retries} exhausted)"
                    )
                earlier.extend(reasons)
                self.chunk_retries_used += len(retry)
                attempt += 1
                for frame, reason in zip(retry, reasons):
                    self._emit(
                        batch.cluster, self.retry_kind, injected=False,
                        target=self.retry_target.format(slot=frame.slot, head=frame.chunk[:3]),
                        attempt=attempt, detail=reason,
                    )
                    _log.warning(
                        f"{self.layer} chunk lost; running it again",
                        extra={"slot": frame.slot, "batch": batch.no,
                               "attempt": attempt, "reason": reason},
                    )
                pending = [(frame.slot, frame.chunk) for frame in retry]
                self._before_retry(batch.no, attempt)

    def _frames(self, batch: _Batch, pending, attempt: int) -> List[_Frame]:
        """Encode one wave's ``run`` requests, then account the faults
        the plan injects into them.  Every frame is encoded before any
        is sent, so a task that cannot be pickled fails the batch with
        nothing sent.  An empty list: no worker is left."""
        workers = self._assign([slot for slot, _chunk in pending], attempt)
        if not workers:
            return []
        refs = self._refs(batch)
        plan = self.faults
        frames = []
        for (slot, chunk), worker in zip(pending, workers):
            meta = {"name": self.span_name, "worker": slot, "batch": batch.no,
                    "attempt": attempt, "chunk_size": len(chunk), "first_index": chunk[0]}
            if batch.trace is not None:
                ctx = batch.trace.child(self.span_name)
                meta.update(trace_id=ctx.trace_id, span_id=ctx.span_id,
                            parent_span_id=ctx.parent_id)
            inject, delay_s = (self._fault(plan, batch.no, slot, attempt)
                               if plan is not None else (None, 0.0))
            fn, args = _chunk_payload(batch.task, chunk)
            try:
                blob = dumps_task((meta, fn, args), refs)
            except Exception as exc:
                raise _WorkerFailure(f"task cannot be sent to {self.peers}: {exc!r}") from None
            request = {"op": "run", "blob": blob, "inject": inject, "delay_s": delay_s}
            frames.append(_Frame(slot, chunk, worker, request))
        for frame in frames:
            inject = frame.request["inject"]
            if inject is None:
                continue
            self.faults_injected += 1
            kind = FAULT_KINDS[inject]
            self._emit(
                batch.cluster, kind, injected=True,
                target=f"worker {frame.worker} chunk {frame.chunk[:3]}",
                attempt=attempt, detail=f"batch {batch.no}",
            )
            _log.info(
                f"{self.layer} fault injected",
                extra={"kind": kind, "worker": str(frame.worker),
                       "batch": batch.no, "attempt": attempt},
            )
        return frames

    def _store(self, batch: _Batch, slot: int, values) -> bool:
        """First writer wins: keep ``values`` unless the chunk already has
        a result (a rerun chunk's late original), which is counted."""
        with self._gate:
            if slot not in batch.results:
                batch.results[slot] = values
                return True
            self.duplicate_results += 1
        self._emit(
            batch.cluster, "duplicate_result", injected=False,
            target=f"chunk {slot}",
            detail="late result after its chunk was rerun; first writer kept",
        )
        return False

    # -- transport hooks ------------------------------------------------------

    def _width(self, count: int) -> int:
        """How many chunks a ``count``-task batch is cut into; 0 when the
        workers cannot take it."""
        raise NotImplementedError

    def _assign(self, slots: List[int], attempt: int) -> list:
        """The worker for each chunk slot of a wave (empty: none left)."""
        raise NotImplementedError

    def _refs(self, batch: _Batch) -> list:
        """Codec persistent references: objects the workers already hold."""
        raise NotImplementedError

    def _fault(self, plan, batch_no: int, slot: int, attempt: int) -> tuple:
        """``(inject, delay_s)``: the plan's fault for one chunk execution."""
        raise NotImplementedError

    def _run_wave(self, batch: _Batch, frames: List[_Frame]) -> List[tuple]:
        """Send every frame, gather every answer: one ``(status, payload)``
        per frame, in order — ``("ok", (values, span))``, ``("fatal",
        traceback_text)``, or anything else for a lost chunk, with the
        reason as its payload."""
        raise NotImplementedError

    def _before_retry(self, batch_no: int, attempt: int) -> None:
        """Called before a retry wave (e.g. to back off)."""

    def _exhausted(self, lost_chunks: int) -> None:
        """Called when ``lost_chunks`` chunks outlived the retry budget."""

    def _next_rung(self):
        """The executor that takes a batch these workers cannot, or
        ``None`` to run it serially in the driver."""
        return None
