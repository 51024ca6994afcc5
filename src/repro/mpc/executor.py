"""Execution backends for per-machine local computation.

Within an MPC round, machines compute independently — the simulator can
therefore fan the per-machine work out to an execution backend.  Four
are provided, all implementing the :class:`ExecutionBackend` protocol
(the fourth, the multi-host :class:`~repro.mpc.remote.RemoteExecutor`,
lives in :mod:`repro.mpc.remote`):

* :class:`SerialExecutor` — one task after another (the default);
* :class:`ThreadedExecutor` — a shared thread pool; the heavy kernels
  are numpy calls that release the GIL, so threads overlap them with
  zero marshalling cost;
* :class:`ProcessExecutor` — a pool of real OS processes, forked once
  per bound cluster at its first parallel batch and kept until
  ``shutdown()``, for metrics whose kernels hold the GIL (edit
  distance, graph search, python callables) or very large instances.
  Each batch sends one frame per worker down a pipe: the task and that
  worker's machines, encoded with the closure codec of
  :mod:`repro.mpc.codec`.  The metric chain is never sent — each
  worker uses the copy it inherited at fork, whose point matrix lives
  in :mod:`multiprocessing.shared_memory` (see :mod:`repro.mpc.shm`) —
  and only the small per-machine results travel back.

Determinism is preserved by construction on every backend: each machine
draws only from its *own* RNG stream inside its own task, so the
schedule cannot change any stream's sequence.  For processes, the
worker additionally returns the machine's post-task RNG state and the
distance-oracle counter deltas, which the driver replays — serial,
threaded, and process runs are bit-identical, including the
:class:`~repro.metric.oracle.CountingOracle` ledger
(``tests/test_mpc_executor.py`` asserts it).

The process-backend task contract is the MPC local-computation contract
sharpened one notch: a task may read anything, but the only *writes*
that survive are its return value and its machine's RNG stream.  All
callbacks in :mod:`repro.core` obey this (they communicate results via
``cluster.send``, never via driver-side mutation).  A task must also
pickle through the codec: one that cannot (it closes over a lock, a
thread-local or an open file) runs serially in the driver, with the
reason in ``degradations``.
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar, runtime_checkable

from repro.mpc import blas
from repro.mpc.codec import dumps_task, loads_task
from repro.mpc.shm import SharedArray, _unwrap, share_metric_points
from repro.obs.events import ExecSpanRecord, FaultEvent
from repro.obs.logging import get_logger

T = TypeVar("T")

_log = get_logger("repro.mpc.executor")


@runtime_checkable
class ExecutionBackend(Protocol):
    """What :class:`~repro.mpc.cluster.MPCCluster` requires of a backend.

    ``map_indexed(fn, count)`` evaluates ``fn(i)`` for ``i in
    range(count)`` and returns the results in index order; exceptions
    propagate to the caller.  ``shutdown()`` releases pools and shared
    resources and must be idempotent.  Backends may optionally provide
    ``bind(cluster)`` (called once from the cluster constructor) and
    ``map_machines(fn, machines, metric=None)`` for machine-aware
    dispatch with state synchronisation.
    """

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]: ...

    def shutdown(self) -> None: ...


#: environment variable consulted when a worker count is not given explicitly
WORKERS_ENV_VAR = "REPRO_WORKERS"


def workers_from_env() -> Optional[int]:
    """Worker count from :data:`WORKERS_ENV_VAR`, or ``None`` if unset.

    An unset or empty variable means "use the default"; anything else
    must be a positive integer (misconfiguration fails loudly rather
    than silently running at the wrong parallelism).
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
        ) from None
    if value < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


class SerialExecutor:
    """Run per-machine tasks one after another (the default)."""

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)``, in order."""
        return [fn(i) for i in range(count)]

    def effective_workers(self, count: int | None = None) -> int:
        """Degree of parallelism actually used (always 1)."""
        return 1

    def shutdown(self) -> None:  # pragma: no cover - nothing to release
        pass


class ThreadedExecutor:
    """Fan per-machine tasks out to a shared thread pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine count passed per call (capped
        at 32).
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure(self, count: int) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self.max_workers or min(32, max(1, count))
            self._pool = ThreadPoolExecutor(max_workers=workers)
        return self._pool

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)`` concurrently,
        returning results in index order (exceptions propagate)."""
        if count <= 1:
            return [fn(i) for i in range(count)]
        pool = self._ensure(count)
        return list(pool.map(fn, range(count)))

    def effective_workers(self, count: int | None = None) -> int:
        """Pool size a ``count``-task batch would actually run on.

        Mirrors :meth:`_ensure`: an already-created pool keeps its
        size, an explicit ``max_workers`` wins otherwise, and with
        neither the pool is sized from the batch — so ``count`` is
        required in that case rather than silently reported as 1.
        """
        if self._pool is not None:
            return self._pool._max_workers
        if self.max_workers:
            return self.max_workers
        if count is None:
            raise ValueError(
                "ThreadedExecutor sizes its pool from the first batch; "
                "pass count (or construct with max_workers) to compute "
                "effective_workers"
            )
        return min(32, max(1, count))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.shutdown()


class _WorkerFailure(Exception):
    """Pool workers failed beyond repair: a task raised a real
    exception, the task could not be sent, or dead/undecodable chunks
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


# -- the process pool ---------------------------------------------------------
#
# A frame is an 8-byte big-endian length and a payload.  Driver → worker:
# a codec-encoded ``(meta, fn, args)`` chunk, or an empty payload, which
# means stop.  Worker → driver: one status byte (0 ok, 1 the task raised
# or its result could not be pickled) and a plain pickle of
# ``(values, span)`` or of the traceback text.

_FRAME = struct.Struct("!Q")

#: serialises pipe creation, fork and close, so no worker is forked
#: while another thread holds a pipe pair that is not registered yet
#: (re-entrant: a collected executor may stop its pool from inside a fork)
_spawn_lock = threading.RLock()
#: driver-side pipe ends of every live pool worker of this process; a
#: freshly forked worker closes all of them, so each pipe has exactly
#: one reader and one writer and a dead peer shows as EOF or EPIPE
_driver_fds: set = set()
#: pools not closed yet, stopped by an exit hook
_live_pools: "weakref.WeakSet[_Pool]" = weakref.WeakSet()

#: seconds shutdown waits for workers to obey a stop frame before SIGKILL
_STOP_WAIT_S = 2.0
#: milliseconds an idle worker waits for a frame between checks that
#: its driver is still alive
_DRIVER_CHECK_MS = 1000


def _send_frame(fd: int, payload: bytes) -> None:
    """Write one frame whole (``OSError`` when the reader is gone)."""
    view = memoryview(_FRAME.pack(len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> Optional[bytearray]:
    buf = bytearray()
    while len(buf) < size:
        piece = os.read(fd, min(size - len(buf), 1 << 20))
        if not piece:
            return None
        buf += piece
    return buf


def _recv_frame(fd: int) -> Optional[bytearray]:
    """Read one frame's payload; ``None`` at end of file, also mid-frame."""
    header = _read_exact(fd, _FRAME.size)
    if header is None:
        return None
    return _read_exact(fd, _FRAME.unpack(header)[0])


def _close_quietly(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:
        pass


def _worker_main(task_fd: int, result_fd: int, inherited: list,
                 blas_threads: int, driver_pid: int) -> None:
    """A pool worker's life: run chunk frames until a stop frame, the end
    of its task pipe, or the death of its driver."""
    gc.freeze()  # the inherited heap is the driver's: never scan or free it here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the driver decides on interrupts
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    blas.set_thread_count(blas_threads)
    resolve = inherited.__getitem__
    poller = select.poll()
    poller.register(task_fd, select.POLLIN)
    while True:
        while not poller.poll(_DRIVER_CHECK_MS):
            if os.getppid() != driver_pid:
                return
        blob = _recv_frame(task_fd)
        if not blob:
            return
        action = None
        try:
            meta, fn, args = loads_task(blob, resolve)
            action = meta["inject"]
            if action == "kill":
                # injected crash: exit before reporting a byte, like an
                # OOM-killed or segfaulted worker
                os._exit(1)
            if action == "delay":
                time.sleep(meta["delay_s"])
            t_start = time.perf_counter()
            values = [fn(a) for a in args]
            span = dict(meta["span"], os_pid=os.getpid(), start_time=t_start,
                        end_time=time.perf_counter())
            payload = b"\x00" + pickle.dumps((values, span), protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            # every failure goes back to the driver, whose serial re-run
            # raises it again with a real traceback
            payload = b"\x01" + pickle.dumps(traceback.format_exc())
        if action == "corrupt":
            # injected bit-rot: ship bytes that cannot unpickle
            payload = payload[:1] + b"\xde\xad\xbe\xef" + payload[1:9]
        blob = meta = fn = args = values = None  # nothing of this chunk outlives it
        try:
            _send_frame(result_fd, payload)
        except OSError:
            return  # the driver is gone


class _Worker:
    """The driver's handle on one pool worker."""

    __slots__ = ("pid", "task_fd", "result_fd")

    def __init__(self, pid: int, task_fd: int, result_fd: int) -> None:
        self.pid = pid
        self.task_fd = task_fd
        self.result_fd = result_fd

    def release(self, deadline: Optional[float]) -> None:
        """Close the driver's pipe ends and reap the process: wait for it
        to exit until ``deadline`` (``None``: no wait), then SIGKILL."""
        with _spawn_lock:  # a pipe made meanwhile may reuse these numbers
            for fd in (self.task_fd, self.result_fd):
                _driver_fds.discard(fd)
                _close_quietly(fd)
        while True:
            try:
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    return
            except ChildProcessError:
                return
            if deadline is None or time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class _Pool:
    """Workers forked for one metric chain, kept until :meth:`close`.

    A slot forks at the first batch that needs it, so its worker
    inherits the driver as it is then — the metric chain with its points
    already in shared memory.  Frames name the chain's layers by their
    index in :attr:`inherited` instead of pickling them.
    """

    def __init__(self, metric, size: int) -> None:
        self.metric = metric
        self.inherited = list(_unwrap(metric))  # every layer of the chain
        self.refs = list(enumerate(self.inherited))
        self.workers: List[Optional[_Worker]] = [None] * size
        self.blas_threads = max(1, (os.cpu_count() or 1) // size)
        self.owner_pid = os.getpid()
        blas.thread_count()  # find the library's setter once, before any fork
        _live_pools.add(self)

    def worker(self, slot: int) -> _Worker:
        """The worker of ``slot``, forked now if the slot is empty."""
        worker = self.workers[slot]
        if worker is None:
            worker = self.workers[slot] = self._fork()
        return worker

    def _fork(self) -> _Worker:
        driver_pid = os.getpid()
        with _spawn_lock:
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid:
                os.close(task_r)
                os.close(result_w)
                _driver_fds.update((task_w, result_r))
                return _Worker(pid, task_w, result_r)
        # the new worker: keep only its own two pipe ends
        code = 1
        try:
            for fd in _driver_fds | {task_w, result_r}:
                _close_quietly(fd)
            _driver_fds.clear()
            _worker_main(task_r, result_w, self.inherited, self.blas_threads, driver_pid)
            code = 0
        finally:
            # hard exit: never run driver atexit/teardown in a worker
            os._exit(code)

    def reap(self, slot: int) -> None:
        """Kill the worker of ``slot`` (dead, or answering garbage); the
        next batch that needs the slot forks a fresh one."""
        worker, self.workers[slot] = self.workers[slot], None
        if worker is not None:
            worker.release(deadline=None)

    def close(self) -> None:
        """Stop every worker: a stop frame, a bounded wait, then SIGKILL."""
        if self.owner_pid != os.getpid():
            return  # a copy inherited by a worker: these are not its children
        _live_pools.discard(self)
        workers = [w for w in self.workers if w is not None]
        self.workers = [None] * len(self.workers)
        for worker in workers:
            try:
                os.set_blocking(worker.task_fd, False)
                _send_frame(worker.task_fd, b"")
            except OSError:  # dead, or its pipe is full: SIGKILL below
                pass
        deadline = time.monotonic() + _STOP_WAIT_S
        for worker in workers:
            worker.release(deadline)


@atexit.register
def _stop_pools_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_live_pools):
        pool.close()


class ProcessExecutor:
    """Run per-machine local work on a pool of forked OS processes.

    The pool is forked at the first parallel batch after :meth:`bind`
    and kept until :meth:`shutdown`; each worker inherits the bound
    cluster's metric chain, whose point matrix :meth:`bind` has already
    moved into shared memory.  A batch writes one frame per strided
    chunk down a worker's pipe — the task and that chunk's machines,
    encoded with :mod:`repro.mpc.codec` — and reads the results back.
    Each worker runs ``max(1, cpu_count // workers)`` BLAS threads (see
    :mod:`repro.mpc.blas`), so the pool does not oversubscribe the
    cores.  A batch over another metric than the pool's (one executor
    bound to several clusters) replaces the pool.

    Fault tolerance is layered (see ``docs/fault_tolerance.md``):

    1. a chunk whose worker dies without reporting, or ships an
       undecodable payload, is **re-executed alone** on a fresh fork of
       that worker — healthy chunks' results are kept — up to
       :attr:`chunk_retries` times;
    2. beyond that (or when a task raises a real exception, which is
       deterministic and not worth retrying, or cannot be pickled) the
       whole batch **falls back to a serial re-run in the driver**, with
       the reason appended to :attr:`degradations`.

    Both rungs preserve bit-identity: workers never mutate driver
    state, so re-executing a chunk (on a fresh worker or in the driver)
    reproduces exactly what the lost worker would have returned, and
    ``map_machines``'s RNG-state/oracle-delta replay then applies the
    same synchronisation it always does.  :attr:`fallback_reason` keeps
    its original meaning — a *permanent* platform degradation (no
    ``fork()``), distinct from the per-batch entries in
    :attr:`degradations`.

    No worker outlives its owner: :meth:`shutdown` sends a stop frame,
    waits a bounded time and then uses SIGKILL; a collected executor and
    an exit hook do the same for pools nobody shut down; and a worker
    whose driver died exits by itself.

    Parameters
    ----------
    max_workers:
        Number of pool workers; defaults to the :data:`WORKERS_ENV_VAR`
        (``REPRO_WORKERS``) environment variable when set, else the CPU
        count.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; its executor layer
        (worker kill / payload corrupt / delay) is enacted inside the
        pool workers.  Usually wired through
        :class:`~repro.mpc.cluster.MPCCluster`'s ``faults`` argument.
    chunk_retries:
        Times a dead/undecodable chunk is re-executed before the batch
        degrades to a serial re-run.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        faults=None,
        chunk_retries: int = 2,
    ) -> None:
        # attributes first: __del__ must survive a failed env lookup below
        self.max_workers = max_workers
        self.fallback_reason: Optional[str] = None
        self._shared: List[SharedArray] = []
        self._pool: Optional[_Pool] = None
        self._lock = threading.RLock()
        self._owner_pid = os.getpid()
        if chunk_retries < 0:
            raise ValueError(f"chunk_retries must be >= 0, got {chunk_retries}")
        self.faults = faults
        self.chunk_retries = chunk_retries
        #: per-batch degradation reasons (serial re-runs taken and why)
        self.degradations: List[str] = []
        # recovery / injection counters (see recovery_stats())
        self.faults_injected = 0
        self.chunk_retries_used = 0
        self.serial_fallbacks = 0
        #: worker slots that died permanently (outlived the chunk retry
        #: budget) — subtracted from the parallelism this executor
        #: *reports*, so bench artifacts record the surviving pool
        self.workers_lost = 0
        self._batch_no = 0
        self._cluster_ref: Optional[weakref.ref] = None
        if not hasattr(os, "fork") or sys.platform in ("win32", "emscripten"):
            self.fallback_reason = f"fork() unavailable on {sys.platform}"
        if max_workers is None:
            self.max_workers = workers_from_env()

    # -- lifecycle ----------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster: move its point matrix into shared memory and
        keep a (weak) back-reference for fault/recovery observability.
        A pool forked earlier is stopped, so the next parallel batch
        forks workers that inherit this cluster's metric."""
        self._cluster_ref = weakref.ref(cluster)
        self._close_pool()
        if self.fallback_reason is not None:
            return
        handle = share_metric_points(cluster.metric)
        if handle is not None:
            self._shared.append(handle)

    def set_fault_plan(self, faults) -> None:
        """Install (or clear, with ``None``) the executor-layer fault plan."""
        self.faults = faults

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

    def _emit_fault(self, kind: str, injected: bool, target: str = "",
                    attempt: int = 0, detail: str = "") -> None:
        """Report a fault/recovery to the bound cluster's observers."""
        cluster = self._cluster_ref() if self._cluster_ref is not None else None
        if cluster is None:
            return
        cluster.obs.emit_fault(
            FaultEvent(
                layer="executor", kind=kind, injected=injected,
                round_no=cluster.round_no, target=target,
                attempt=attempt, detail=detail,
            )
        )

    def shutdown(self) -> None:
        """Stop the worker pool and unlink shared segments (mappings
        stay valid; idempotent)."""
        if self._owner_pid != os.getpid():
            return  # a copy inherited by a pool worker owns nothing
        self._close_pool()
        for handle in self._shared:
            handle.release()
        self._shared = []

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.shutdown()

    def _close_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

    def _pool_for(self, metric) -> _Pool:
        """The pool for ``metric``'s chain; one forked for another metric
        is stopped and replaced."""
        if self._pool is None or self._pool.metric is not metric:
            self._close_pool()
            size = max(1, self.max_workers or (os.cpu_count() or 1))
            self._pool = _Pool(metric, size)
        return self._pool

    # -- task execution -----------------------------------------------------

    def _workers_for(self, count: int) -> int:
        return max(1, min(self.max_workers or (os.cpu_count() or 1), count))

    def effective_workers(self, count: int | None = None) -> int:
        """Workers a ``count``-task batch can actually be trusted to.

        Accounts for the configured cap, the CPU count, the batch size,
        the serial fallback, *and* worker slots lost permanently
        mid-run (chunks that outlived the retry budget) — this is the
        surviving pool a bench artifact should record, not the
        configured one.
        """
        if self.fallback_reason is not None:
            return 1
        base = max(1, (self.max_workers or (os.cpu_count() or 1)) - self.workers_lost)
        if count is None:
            return base
        return max(1, min(base, count))

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)`` across the pool
        workers, in index order; falls back to serial when parallelism
        cannot help or cannot be trusted."""
        if count <= 1 or self.fallback_reason is not None or self._workers_for(count) <= 1:
            return [fn(i) for i in range(count)]
        try:
            return self._fork_map(fn, count)
        except _WorkerFailure as exc:
            # Workers never mutate driver state, so a clean re-run in the
            # driver reproduces the exact result — or the real exception,
            # with a real traceback.
            self._record_serial_fallback(str(exc))
            return [fn(i) for i in range(count)]

    def map_machines(self, fn, machines: Sequence, metric=None) -> list:
        """Machine-aware dispatch with state synchronisation.

        Each worker returns ``(value, rng_state, oracle_deltas)`` for
        its machines; the driver replays the RNG states and counter
        deltas so a process run is bit-identical to a serial one — both
        the algorithmic results and the CountingOracle ledger.
        """
        count = len(machines)
        if count <= 1 or self.fallback_reason is not None or self._workers_for(count) <= 1:
            return [fn(mach) for mach in machines]
        try:
            packed = self._fork_map(_MachineTask(fn, machines, metric), count)
        except _WorkerFailure as exc:
            self._record_serial_fallback(str(exc))
            return [fn(mach) for mach in machines]
        return _replay(packed, machines, metric)

    def _record_serial_fallback(self, reason: str) -> None:
        """A batch degraded to a serial driver re-run; remember why."""
        self.serial_fallbacks += 1
        self.degradations.append(reason)
        self._emit_fault("serial_fallback", injected=False, detail=reason)
        _log.warning(
            "executor batch degraded to serial re-run",
            extra={"reason": reason, "serial_fallbacks": self.serial_fallbacks},
        )

    def _fork_map(self, task: Callable[[int], T], count: int) -> List[T]:
        """Run one strided index chunk per pool worker; gather over pipes.

        Chunks whose worker dies without reporting or ships garbage are
        re-run alone on a fresh fork of that worker — healthy chunks'
        results are kept — up to :attr:`chunk_retries` times.  A task
        that raises a real exception aborts immediately: it is
        deterministic, and the serial fallback will reproduce it with a
        full traceback.  :class:`_WorkerFailure` messages carry *every*
        failed chunk's reason, not just the first.
        """
        workers = self._workers_for(count)
        with self._lock:
            self._batch_no += 1
            batch_no = self._batch_no
            if isinstance(task, _MachineTask):
                metric = task.metric
            else:
                cluster = self._cluster_ref() if self._cluster_ref is not None else None
                metric = cluster.metric if cluster is not None else None
            pool = self._pool_for(metric)
            chunks = [list(range(w, count, workers)) for w in range(workers)]
            pending = [(w, chunk) for w, chunk in enumerate(chunks) if chunk]
            results: List[T] = [None] * count  # type: ignore[list-item]
            earlier_reasons: list[str] = []
            attempt = 0
            while True:
                outcomes = self._run_chunks(pool, task, pending, batch_no, attempt)
                fatal: list[str] = []
                retryable: list[tuple[int, list[int]]] = []
                reasons: list[str] = []
                for (widx, chunk), (status, payload) in zip(pending, outcomes):
                    if status == "ok":
                        for i, value in zip(chunk, payload):
                            results[i] = value
                    elif status == "fatal":
                        fatal.append(str(payload))
                    else:  # "lost": died without reporting / undecodable payload
                        reasons.append(str(payload))
                        retryable.append((widx, chunk))
                if fatal:
                    raise _WorkerFailure("; ".join(fatal + reasons))
                if not retryable:
                    return results
                if attempt >= self.chunk_retries:
                    # these worker slots died permanently: report the
                    # surviving pool from here on (see effective_workers)
                    self.workers_lost = max(self.workers_lost, len(retryable))
                    raise _WorkerFailure(
                        "; ".join(earlier_reasons + reasons)
                        + f" (chunk retry budget {self.chunk_retries} exhausted)"
                    )
                earlier_reasons.extend(reasons)
                self.chunk_retries_used += len(retryable)
                for (widx, chunk), reason in zip(retryable, reasons):
                    self._emit_fault(
                        "chunk_retry", injected=False,
                        target=f"worker {widx} chunk {chunk[:3]}",
                        attempt=attempt + 1, detail=reason,
                    )
                    _log.warning(
                        "executor chunk lost; re-forking its worker",
                        extra={"worker": widx, "batch": batch_no,
                               "attempt": attempt + 1, "reason": reason},
                    )
                pending = retryable
                attempt += 1

    def _run_chunks(
        self,
        pool: _Pool,
        task: Callable[[int], T],
        pending: Sequence[Tuple[int, List[int]]],
        batch_no: int,
        attempt: int,
    ) -> List[Tuple[str, object]]:
        """Send each pending ``(worker_index, chunk)`` to its worker; gather.

        Returns one ``(status, payload)`` per chunk, in order:
        ``("ok", values)``, ``("fatal", traceback_text)`` for a task
        exception, or ``("lost", reason)`` for a worker that died
        without reporting or shipped an undecodable payload.  When a
        fault plan is installed, its executor-layer faults are decided
        here — in the driver, so observers see them — and enacted inside
        the worker.

        Every frame is encoded before any is sent, so a task that cannot
        be pickled raises :class:`_WorkerFailure` with the pool untouched
        (no worker is forked for it).  Each chunk's trace context is
        derived in the driver (so the id tree is deterministic) and
        travels in its frame; the worker returns a timed span record
        alongside its values, which the driver merges into the bound
        cluster's observers as an
        :class:`~repro.obs.events.ExecSpanRecord`.
        """
        plan = self.faults
        cluster = self._cluster_ref() if self._cluster_ref is not None else None
        parent_ctx = cluster.obs.trace_parent() if cluster is not None else None
        frames: List[bytes] = []
        actions: list = []
        for widx, chunk in pending:
            chunk_ctx = (
                parent_ctx.child("exec/chunk") if parent_ctx is not None else None
            )
            action = plan.worker_fault(batch_no, widx, attempt) if plan else None
            span = {
                "name": "exec/chunk",
                "worker": widx,
                "batch": batch_no,
                "attempt": attempt,
                "chunk_size": len(chunk),
                "first_index": chunk[0],
            }
            if chunk_ctx is not None:
                span["trace_id"] = chunk_ctx.trace_id
                span["span_id"] = chunk_ctx.span_id
                span["parent_span_id"] = chunk_ctx.parent_id
            meta = {"inject": action, "span": span,
                    "delay_s": plan.worker_delay_s if plan else 0.0}
            fn, args = _chunk_payload(task, chunk)
            try:
                frames.append(dumps_task((meta, fn, args), pool.refs))
            except Exception as exc:
                raise _WorkerFailure(f"task cannot be sent to a pool worker: {exc!r}") from None
            actions.append(action)

        for (widx, chunk), action in zip(pending, actions):
            if action is None:
                continue
            self.faults_injected += 1
            kind = {"kill": "worker_kill", "corrupt": "payload_corrupt",
                    "delay": "worker_delay"}[action]
            self._emit_fault(
                kind, injected=True,
                target=f"worker {widx} chunk {chunk[:3]}",
                attempt=attempt, detail=f"batch {batch_no}",
            )
            _log.info(
                "executor fault injected",
                extra={"kind": kind, "worker": widx,
                       "batch": batch_no, "attempt": attempt},
            )
        try:
            return self._exchange(pool, pending, frames, cluster)
        except BaseException:
            # frames may be left unsent or unread: no later batch may
            # share a pipe with this one, so the whole pool goes
            self._close_pool()
            raise

    def _exchange(self, pool: _Pool, pending, frames, cluster) -> List[Tuple[str, object]]:
        """Write each frame to its worker, then read every answer."""
        sent = []
        for (widx, _chunk), frame in zip(pending, frames):
            try:
                worker = pool.worker(widx)
            except OSError as exc:  # no fork possible right now
                raise _WorkerFailure(f"cannot fork a pool worker: {exc}") from None
            try:
                _send_frame(worker.task_fd, frame)
                sent.append(True)
            except OSError:  # the worker died while idle: EPIPE
                sent.append(False)
        outcomes: List[Tuple[str, object]] = []
        for (widx, chunk), ok in zip(pending, sent):
            worker = pool.workers[widx]
            blob = _recv_frame(worker.result_fd) if ok else None
            if not blob:
                pool.reap(widx)
                outcomes.append(
                    ("lost", f"worker {worker.pid} died without reporting (chunk {chunk[:3]}…)")
                )
                continue
            try:
                data = pickle.loads(memoryview(blob)[1:])
            except Exception:
                pool.reap(widx)
                outcomes.append(
                    ("lost",
                     f"worker {worker.pid} returned an undecodable payload (chunk {chunk[:3]}…)")
                )
                continue
            if blob[0] != 0:
                outcomes.append(("fatal", str(data)))
            else:
                values, span = data
                if cluster is not None:
                    cluster.obs.emit_exec_span(ExecSpanRecord(**span))
                outcomes.append(("ok", values))
        return outcomes


#: canonical backend names accepted by the CLI and the solver facade
BACKENDS = ("serial", "thread", "process", "remote")

_ALIASES = {
    "serial": "serial",
    "thread": "thread",
    "threaded": "thread",
    "threads": "thread",
    "process": "process",
    "processes": "process",
    "fork": "process",
    "remote": "remote",
    "sockets": "remote",
}


def get_executor(
    backend: str = "serial",
    max_workers: int | None = None,
    workers=None,
):
    """Build an execution backend from its name.

    ``backend`` is one of ``'serial'``, ``'thread'``/``'threaded'``,
    ``'process'`` (alias ``'fork'``), or ``'remote'`` (alias
    ``'sockets'``); an :class:`ExecutionBackend` instance passes
    through unchanged.  ``workers`` carries remote worker addresses
    (``'host:port,host:port'`` or a list) for the remote backend —
    when omitted the :data:`~repro.mpc.remote.REMOTE_WORKERS_ENV_VAR`
    environment variable is consulted; it is ignored by the local
    backends.
    """
    if not isinstance(backend, str):
        if isinstance(backend, ExecutionBackend):
            return backend
        raise TypeError(f"not an execution backend: {backend!r}")
    name = _ALIASES.get(backend.lower())
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadedExecutor(max_workers=max_workers)
    if name == "process":
        return ProcessExecutor(max_workers=max_workers)
    if name == "remote":
        from repro.mpc.remote import RemoteExecutor  # avoid an import cycle

        return RemoteExecutor(workers, max_workers=max_workers)
    aliases = sorted(set(_ALIASES) - set(BACKENDS))
    raise ValueError(
        f"unknown backend {backend!r}; valid backends: "
        f"{', '.join(repr(b) for b in BACKENDS)} "
        f"(aliases: {', '.join(repr(a) for a in aliases)})"
    )
