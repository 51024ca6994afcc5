"""Execution backends for per-machine local computation.

Within an MPC round, machines compute independently — the simulator can
therefore fan the per-machine work out to an execution backend.  Three
are provided, all implementing the :class:`ExecutionBackend` protocol
(the third, the multi-host :class:`~repro.mpc.remote.RemoteExecutor`,
lives in :mod:`repro.mpc.remote`):

* :class:`SerialExecutor` — one task after another (the default);
* :class:`ProcessExecutor` — a pool of real OS processes, forked once
  per bound cluster at its first parallel batch and kept until
  ``shutdown()``, for metrics whose kernels hold the GIL (edit
  distance, graph search, python callables) or very large instances.
  Each batch sends one frame per worker over a socket pair: the task
  and that worker's machines, encoded with the closure codec of
  :mod:`repro.mpc.codec`.  The metric chain is never sent — each
  worker reads the copy it inherited at fork, whose point matrix is
  the read-only array :class:`~repro.metric.points.PointSet` built —
  and only the small per-machine results travel back.  The batch loop
  — chunking, retries, fault accounting, span merging — is the
  :class:`~repro.mpc.dispatch.ChunkDispatcher` it shares with the
  remote backend; this module supplies the pool it runs on.

Determinism is preserved by construction on every backend: each machine
draws only from its *own* RNG stream inside its own task, so the
schedule cannot change any stream's sequence.  For processes, the
worker additionally returns the machine's post-task RNG state and the
distance-oracle counter deltas, which the driver replays — serial and
process runs are bit-identical, including the
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
import select
import signal
import socket
import sys
import threading
import time
import weakref
from typing import Callable, List, Optional, Protocol, TypeVar, runtime_checkable

from repro.mpc import blas
from repro.mpc.codec import ProtocolError, recv_frame, recv_msg, send_frame, send_msg
from repro.mpc.dispatch import ChunkDispatcher, _WorkerFailure, lost, read_reply, run_chunk

T = TypeVar("T")


@runtime_checkable
class ExecutionBackend(Protocol):
    """What :class:`~repro.mpc.cluster.MPCCluster` requires of a backend.

    ``map_indexed(fn, count)`` evaluates ``fn(i)`` for ``i in
    range(count)`` and returns the results in index order; exceptions
    propagate to the caller.  ``shutdown()`` releases pools and must be
    idempotent.  Backends may optionally provide ``bind(cluster)``
    (called once from the cluster constructor) and
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


def _unwrap(metric):
    """Walk oracle wrappers (``.inner``) down to the base metric."""
    seen = set()
    while metric is not None and id(metric) not in seen:
        seen.add(id(metric))
        yield metric
        metric = getattr(metric, "inner", None)


# -- the process pool ---------------------------------------------------------
#
# Each worker talks to the driver over one ``socket.socketpair()``, in the
# frames of :mod:`repro.mpc.codec`: the driver sends ``run`` requests (see
# :mod:`repro.mpc.dispatch`) or ``{"op": "stop"}``, and a worker answers
# each ``run`` with the reply of :func:`~repro.mpc.dispatch.run_chunk`.

#: serialises socket creation, fork and close, so no worker is forked
#: while another thread holds a socket pair that is not registered yet
#: (re-entrant: a collected executor may stop its pool from inside a fork)
_spawn_lock = threading.RLock()
#: driver-side socket ends of every live pool worker of this process; a
#: freshly forked worker closes all of them, so each socket pair has
#: exactly one end per side and a dead peer shows as EOF or EPIPE
_driver_socks: set = set()
#: pools not closed yet, stopped by an exit hook
_live_pools: "weakref.WeakSet[_Pool]" = weakref.WeakSet()

#: seconds shutdown waits for workers to obey a stop frame before SIGKILL
_STOP_WAIT_S = 2.0
#: milliseconds an idle worker waits for a frame between checks that
#: its driver is still alive
_DRIVER_CHECK_MS = 1000


def _worker_main(sock: socket.socket, inherited: list, blas_threads: int,
                 driver_pid: int) -> None:
    """A pool worker's life: run chunk frames until a stop frame, the end
    of its socket, or the death of its driver."""
    gc.freeze()  # the inherited heap is the driver's: never scan or free it here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the driver decides on interrupts
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    blas.set_thread_count(blas_threads)
    resolve = inherited.__getitem__
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    while True:
        while not poller.poll(_DRIVER_CHECK_MS):
            if os.getppid() != driver_pid:
                return
        try:
            request = recv_msg(sock)
        except (OSError, ProtocolError):
            return  # the driver closed its end
        if request.get("op") != "run":
            return
        if request["inject"] == "kill":
            # injected crash: exit before reporting a byte, like an
            # OOM-killed or segfaulted worker
            os._exit(1)
        reply = run_chunk(request, resolve)
        request = None  # nothing of this chunk outlives it
        try:
            send_frame(sock, reply)
        except OSError:
            return  # the driver is gone


class _Worker:
    """The driver's handle on one pool worker."""

    __slots__ = ("pid", "sock")

    def __init__(self, pid: int, sock: socket.socket) -> None:
        self.pid = pid
        self.sock = sock

    def release(self, deadline: Optional[float]) -> None:
        """Close the driver's socket end and reap the process: wait for
        it to exit until ``deadline`` (``None``: no wait), then SIGKILL."""
        with _spawn_lock:  # a socket made meanwhile may reuse this fd
            _driver_socks.discard(self.sock)
            self.sock.close()
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
    inherits the driver as it is then, the metric chain and its
    read-only point matrix included.  Frames name the chain's layers by
    their index in :attr:`inherited` instead of pickling them.
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
            driver_end, worker_end = socket.socketpair()
            pid = os.fork()
            if pid:
                worker_end.close()
                _driver_socks.add(driver_end)
                return _Worker(pid, driver_end)
        # the new worker: keep only its own end
        code = 1
        try:
            for sock in _driver_socks | {driver_end}:
                sock.close()
            _driver_socks.clear()
            _worker_main(worker_end, self.inherited, self.blas_threads, driver_pid)
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
                worker.sock.setblocking(False)
                send_msg(worker.sock, {"op": "stop"})
            except OSError:  # dead, or its socket is full: SIGKILL below
                pass
        deadline = time.monotonic() + _STOP_WAIT_S
        for worker in workers:
            worker.release(deadline)


@atexit.register
def _stop_pools_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_live_pools):
        pool.close()


class ProcessExecutor(ChunkDispatcher):
    """Run per-machine local work on a pool of forked OS processes.

    The pool is forked at the first parallel batch after :meth:`bind`
    and kept until :meth:`shutdown`; each worker inherits the bound
    cluster's metric chain and reads its points from the pages it
    inherited, so no point is ever pickled.  A batch is the
    :class:`~repro.mpc.dispatch.ChunkDispatcher` loop: each wave writes
    one frame per strided chunk to its worker's socket — the task and
    that chunk's machines, encoded with :mod:`repro.mpc.codec` — before
    it reads any answer.  Each worker runs ``max(1, cpu_count //
    workers)`` BLAS threads (see :mod:`repro.mpc.blas`), so the pool
    does not oversubscribe the cores.  A batch over another metric than
    the pool's (one executor bound to several clusters) replaces the
    pool.

    Its recovery ladder is the core's (see ``docs/fault_tolerance.md``):
    a lost chunk — its worker died without reporting, or shipped an
    undecodable payload — re-runs alone on a fresh fork of that worker,
    and a batch the pool cannot finish re-runs serially in the driver.
    :attr:`fallback_reason` is a *permanent* platform degradation (no
    ``fork()``), distinct from the per-batch :attr:`degradations`.

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

    layer = "executor"
    span_name = "exec/chunk"
    retry_kind = "chunk_retry"
    retry_target = "worker {slot} chunk {head}"
    peers = "a pool worker"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        faults=None,
        chunk_retries: int = 2,
    ) -> None:
        # attributes first: __del__ must survive a failed check below
        self.max_workers = max_workers
        self._pool: Optional[_Pool] = None
        self._owner_pid = os.getpid()
        super().__init__(faults, chunk_retries)
        #: worker slots that died permanently (outlived the chunk retry
        #: budget) — subtracted from the parallelism this executor
        #: *reports*, so bench artifacts record the surviving pool
        self.workers_lost = 0
        if not hasattr(os, "fork") or sys.platform in ("win32", "emscripten"):
            self.fallback_reason = f"fork() unavailable on {sys.platform}"
        if max_workers is None:
            self.max_workers = workers_from_env()

    # -- lifecycle ----------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster.  A pool forked earlier is stopped, so the
        next parallel batch forks workers that inherit this cluster's
        metric."""
        super().bind(cluster)
        self._close_pool()

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent)."""
        if self._owner_pid != os.getpid():
            return  # a copy inherited by a pool worker owns nothing
        self._close_pool()

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

    #: one batch on the pool, without the serial fallback: raises
    #: :class:`~repro.mpc.dispatch._WorkerFailure` when the pool cannot finish
    _fork_map = ChunkDispatcher._run_batch

    def _width(self, count: int) -> int:
        # one worker is no parallelism: such a batch runs in the driver
        workers = min(self.max_workers or (os.cpu_count() or 1), count)
        return workers if workers > 1 and self.fallback_reason is None else 0

    def _assign(self, slots: List[int], attempt: int) -> list:
        return slots  # a chunk's slot is its worker's

    def _refs(self, batch) -> list:
        return self._pool_for(batch.metric).refs

    def _fault(self, plan, batch_no: int, slot: int, attempt: int) -> tuple:
        return plan.worker_fault(batch_no, slot, attempt), plan.worker_delay_s

    def _exhausted(self, lost_chunks: int) -> None:
        # these worker slots died permanently: report the surviving pool
        # from here on (see effective_workers)
        self.workers_lost = max(self.workers_lost, lost_chunks)

    def _run_wave(self, batch, frames) -> List[tuple]:
        """Write each frame to its worker, then read every answer; a lost
        worker is reaped, and the next wave forks its slot afresh."""
        pool = self._pool_for(batch.metric)
        try:
            sent = []
            for frame in frames:
                try:
                    worker = pool.worker(frame.slot)
                except OSError as exc:  # no fork possible right now
                    raise _WorkerFailure(f"cannot fork a pool worker: {exc}") from None
                try:
                    send_msg(worker.sock, frame.request)
                    sent.append(True)
                except OSError:  # the worker died while idle: EPIPE
                    sent.append(False)
            outcomes = []
            for frame, ok in zip(frames, sent):
                worker = pool.workers[frame.slot]
                try:
                    reply = recv_frame(worker.sock) if ok else None
                except (OSError, ProtocolError):
                    reply = None
                outcome = (read_reply(reply, worker.pid, frame.chunk) if reply is not None
                           else lost(worker.pid, "died without reporting", frame.chunk))
                if outcome[0] == "lost":
                    pool.reap(frame.slot)
                outcomes.append(outcome)
            return outcomes
        except BaseException:
            # frames may be left unsent or unread: no later batch may
            # share a socket with this one, so the whole pool goes
            self._close_pool()
            raise


#: backend names accepted by the CLI, the solver facade and job specs
BACKENDS = ("serial", "process", "remote")


def get_executor(
    backend: str = "serial",
    max_workers: int | None = None,
    workers=None,
):
    """Build an execution backend from its name.

    ``backend`` is one of :data:`BACKENDS` — ``'serial'``, ``'process'``
    or ``'remote'``; an :class:`ExecutionBackend` instance
    passes through unchanged.  ``workers`` carries remote worker
    addresses (``'host:port,host:port'`` or a list) for the remote
    backend — when omitted the
    :data:`~repro.mpc.remote.REMOTE_WORKERS_ENV_VAR` environment
    variable is consulted; it is ignored by the local backends.
    """
    if not isinstance(backend, str):
        if isinstance(backend, ExecutionBackend):
            return backend
        raise TypeError(f"not an execution backend: {backend!r}")
    name = backend.lower()
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(max_workers=max_workers)
    if name == "remote":
        from repro.mpc.remote import RemoteExecutor  # avoid an import cycle

        return RemoteExecutor(workers, max_workers=max_workers)
    raise ValueError(
        f"unknown backend {backend!r}; valid backends: "
        f"{', '.join(repr(b) for b in BACKENDS)}"
    )
