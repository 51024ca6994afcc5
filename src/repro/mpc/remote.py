"""Remote multi-host execution: worker agents + a lease-based executor.

:class:`RemoteExecutor` is the fourth :class:`~repro.mpc.executor.ExecutionBackend`:
it ships per-machine work over TCP to lightweight worker agents
(:class:`WorkerAgent`, started with ``repro worker --listen HOST:PORT``)
instead of forking local processes.  Robustness — not the transport —
is the design center:

* **Framed protocol.**  Every message is one length-prefixed frame
  (8-byte big-endian length + pickled payload).  A truncated frame, a
  closed socket, or an oversized header is a :class:`ProtocolError`,
  never a hang or a partial read.
* **Dataset cache.**  The point matrix is shipped **once per dataset
  fingerprint** per worker (the remote analogue of
  :mod:`repro.mpc.shm`); chunk payloads reference it by fingerprint
  through pickle persistent ids.  A freshly restarted worker answers
  ``need_dataset`` and the driver re-ships transparently.
* **Leases and heartbeats.**  A dispatched chunk holds a lease of
  :attr:`RemoteExecutor.lease_s`; the executing worker heartbeats while
  it computes, each beat renewing the lease up to a hard per-chunk
  deadline.  A worker that stops beating forfeits the chunk.
* **Re-dispatch to survivors.**  Chunks from dead, unresponsive, or
  corrupt-responding workers are re-dispatched to surviving workers
  with exponential backoff and deterministic jitter, bounded by
  ``chunk_retries`` — reasons aggregate in ``degradations`` /
  ``recovery_stats()`` exactly like
  :class:`~repro.mpc.executor.ProcessExecutor`.  A result that arrives
  *after* its lease was forfeited is counted, not applied:
  first-writer-wins.
* **Graceful degradation.**  When the whole pool is lost mid-run the
  batch falls to the local process backend, and from there to a serial
  driver re-run — the same ladder, one rung higher.
* **Bit-identity.**  Workers replay nothing into the driver; they
  return ``(value, rng_state, oracle_deltas)`` per machine and the
  driver replays RNG states and CountingOracle deltas exactly as the
  process backend does, so a remote run — faulted or not — is
  bit-identical to a serial one, ledger included.

Closures are shipped by value (code object + cells + referenced
globals), so both ends must run the same Python ``major.minor`` —
verified at ping time, mismatched workers are refused with a clear
reason rather than a marshal crash mid-run.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import marshal
import os
import pickle
import socket
import struct
import sys
import threading
import time
import traceback
import types
import weakref
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.mpc.executor import ProcessExecutor, _counting_layers, workers_from_env
from repro.mpc.shm import _unwrap
from repro.obs.events import ExecSpanRecord, FaultEvent
from repro.obs.logging import get_logger
from repro.obs.tracing import TraceContext

T = TypeVar("T")

_log = get_logger("repro.mpc.remote")

#: environment variable listing default remote worker addresses
REMOTE_WORKERS_ENV_VAR = "REPRO_REMOTE_WORKERS"

#: sanity cap on a single frame (a corrupted length header must not
#: allocate gigabytes before failing)
MAX_FRAME_BYTES = 1 << 31

_HEADER = struct.Struct("!Q")


class ProtocolError(Exception):
    """A frame could not be read or written whole: truncated stream,
    closed connection, or an implausible length header."""


# -- framing ------------------------------------------------------------------


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        piece = sock.recv(min(1 << 16, nbytes - len(buf)))
        if not piece:
            raise ProtocolError(
                f"connection closed mid-frame ({len(buf)}/{nbytes} bytes)"
            )
        buf += piece
    return bytes(buf)


def send_frame(sock: socket.socket, blob: bytes) -> None:
    """Write one length-prefixed frame."""
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame whole (or raise
    :class:`ProtocolError`); ``socket.timeout`` propagates so callers
    can implement leases."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return _recv_exact(sock, length)


def send_msg(sock: socket.socket, payload: dict) -> None:
    send_frame(sock, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def recv_msg(sock: socket.socket) -> dict:
    blob = recv_frame(sock)
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a dict frame, got {type(payload).__name__}")
    return payload


def parse_worker_addresses(spec, *, allow_zero_port: bool = False) -> List[Tuple[str, int]]:
    """``'host:port,host:port'`` (or a list of such / ``(host, port)``
    pairs) → a list of ``(host, port)`` tuples, order preserved.

    ``allow_zero_port`` admits port 0 — meaningful only for a *listen*
    address (the OS picks an ephemeral port), never for dialing out.
    """
    if spec is None:
        return []
    items: list = []
    if isinstance(spec, str):
        items = [part for part in spec.split(",") if part.strip()]
    else:
        items = list(spec)
    out: List[Tuple[str, int]] = []
    for item in items:
        if isinstance(item, tuple):
            host, port = item
        else:
            text = str(item).strip()
            host, sep, port = text.rpartition(":")
            if not sep or not host:
                raise ValueError(f"bad worker address {item!r}; expected HOST:PORT")
        try:
            port = int(port)
        except ValueError:
            raise ValueError(f"bad worker port in {item!r}") from None
        if not (0 if allow_zero_port else 1) <= port < 65536:
            raise ValueError(f"worker port out of range in {item!r}")
        out.append((str(host), port))
    return out


def workers_from_remote_env() -> List[Tuple[str, int]]:
    """Addresses from :data:`REMOTE_WORKERS_ENV_VAR` (empty when unset)."""
    return parse_worker_addresses(os.environ.get(REMOTE_WORKERS_ENV_VAR, ""))


# -- task shipping ------------------------------------------------------------
#
# map_machines tasks are closures over numpy arrays and module-level
# helpers — exactly what stdlib pickle refuses.  The pair of pickler
# subclasses below ships such functions *by value*: the marshalled code
# object, defaults, closure-cell contents, and the referenced globals
# (modules go by name, module-level functions by reference).  The point
# matrix additionally travels as a persistent id so a chunk payload
# never embeds the dataset — the worker resolves the fingerprint from
# its cache and answers ``need_dataset`` on a miss.


class _DatasetMiss(Exception):
    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"dataset {fingerprint} not cached on this worker")
        self.fingerprint = fingerprint


class _EmptyCell:
    """Sentinel for an unassigned closure cell."""


_EMPTY_CELL = _EmptyCell()


def _code_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _shipped_by_value(fn: types.FunctionType) -> bool:
    """True when ``fn`` cannot be pickled by reference (lambdas,
    nested functions, anything not importable under its qualname)."""
    if fn.__name__ == "<lambda>" or "<locals>" in fn.__qualname__:
        return True
    module = sys.modules.get(fn.__module__)
    if module is None:
        return True
    target = module
    for part in fn.__qualname__.split("."):
        target = getattr(target, part, None)
        if target is None:
            return True
    return target is not fn


def _rebuild_function(code_bytes, name, defaults, kwdefaults, cells, glb, module):
    import builtins

    code = marshal.loads(code_bytes)
    namespace = dict(glb)
    namespace.setdefault("__builtins__", builtins)
    namespace.setdefault("__name__", module)
    closure = tuple(
        types.CellType() if isinstance(v, _EmptyCell) else types.CellType(v)
        for v in cells
    )
    fn = types.FunctionType(code, namespace, name, defaults, closure)
    fn.__kwdefaults__ = kwdefaults
    return fn


def _reduce_function(fn: types.FunctionType):
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(cell.cell_contents)
        except ValueError:  # pragma: no cover - unassigned cell
            cells.append(_EMPTY_CELL)
    glb = {
        name: fn.__globals__[name]
        for name in sorted(_code_names(fn.__code__))
        if name in fn.__globals__ and fn.__globals__[name] is not fn
    }
    return (
        _rebuild_function,
        (
            marshal.dumps(fn.__code__),
            fn.__name__,
            fn.__defaults__,
            fn.__kwdefaults__,
            tuple(cells),
            glb,
            fn.__module__,
        ),
    )


class _TaskPickler(pickle.Pickler):
    def __init__(self, buf, dataset: Optional[Tuple[str, np.ndarray]] = None) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._dataset = dataset

    def persistent_id(self, obj):
        if self._dataset is not None and obj is self._dataset[1]:
            return ("repro-dataset", self._dataset[0])
        return None

    def reducer_override(self, obj):
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, types.FunctionType) and _shipped_by_value(obj):
            return _reduce_function(obj)
        return NotImplemented


class _TaskUnpickler(pickle.Unpickler):
    def __init__(self, buf, datasets: dict) -> None:
        super().__init__(buf)
        self._datasets = datasets

    def persistent_load(self, pid):
        kind, fingerprint = pid
        if kind != "repro-dataset":  # pragma: no cover - protocol guard
            raise ProtocolError(f"unknown persistent id {pid!r}")
        try:
            return self._datasets[fingerprint]
        except KeyError:
            raise _DatasetMiss(fingerprint) from None


def dumps_task(payload, dataset: Optional[Tuple[str, np.ndarray]] = None) -> bytes:
    """Pickle a task payload, shipping closures by value and the point
    matrix (when given) as a fingerprint reference."""
    buf = io.BytesIO()
    _TaskPickler(buf, dataset=dataset).dump(payload)
    return buf.getvalue()


def loads_task(blob: bytes, datasets: dict):
    """Inverse of :func:`dumps_task`; raises :class:`_DatasetMiss` when a
    referenced fingerprint is not in ``datasets``."""
    return _TaskUnpickler(io.BytesIO(blob), datasets).load()


def find_points_array(metric) -> Optional[np.ndarray]:
    """The metric's raw coordinate matrix, if it has one (same walk as
    :func:`repro.mpc.shm.share_metric_points`)."""
    for layer in _unwrap(metric):
        data = getattr(getattr(layer, "points", None), "_data", None)
        if isinstance(data, np.ndarray):
            return data
    return None


def dataset_fingerprint(array: np.ndarray) -> str:
    """Content fingerprint of a point matrix (shape + dtype + bytes)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((array.shape, str(array.dtype))).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# -- the worker agent ---------------------------------------------------------


class WorkerAgent:
    """One remote worker: accepts framed requests, executes chunks.

    Usable in-process (tests, the docs quickstart) via :meth:`start` /
    :meth:`stop`, or as a dedicated process via ``repro worker --listen
    HOST:PORT`` (:meth:`serve_forever`).  The local slot count defaults
    to ``REPRO_WORKERS`` (see
    :func:`~repro.mpc.executor.workers_from_env`), else the CPU count;
    slots bound how many chunks execute concurrently on this agent.

    Request vocabulary (one request per connection)::

        {"op": "ping"}                          -> {"ok", "pid", "slots", "python", "datasets"}
        {"op": "put_dataset", fingerprint,
         shape, dtype, blob}                    -> {"ok", "cached"}
        {"op": "run", mode, blob, batch,
         worker, attempt, chunk, traceparent,
         parent_span, inject, delay_s,
         heartbeat_s}                           -> {"hb": n}* then
                                                   {"ok": True, "blob"} |
                                                   {"ok": False, "fatal"} |
                                                   {"ok": False, "need_dataset"}
        {"op": "shutdown"}                      -> {"ok": True}

    While a chunk runs, the handler emits ``{"hb": n}`` frames every
    ``heartbeat_s`` seconds; each one renews the driver's lease.
    Injected faults (decided by the driver's seeded
    :class:`~repro.faults.FaultPlan`, enacted here) arrive as
    ``inject``: ``"drop"`` closes the connection without a reply,
    ``"kill"`` terminates the agent (``os._exit`` for a dedicated
    process, a permanent stop for an in-process agent), ``"corrupt"``
    replies with an undecodable blob, and ``"delay"`` sleeps
    ``delay_s`` before computing (heartbeats keep the lease alive).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        slots: Optional[int] = None,
        allow_exit: bool = False,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.slots = int(slots or workers_from_env() or (os.cpu_count() or 1))
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        #: ``True`` for dedicated-process agents: an injected kill may
        #: ``os._exit``.  In-process agents simulate death by refusing
        #: all further connections instead.
        self.allow_exit = allow_exit
        self._datasets: dict[str, np.ndarray] = {}
        self._slots_sem = threading.BoundedSemaphore(self.slots)
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        return f"{self.host}:{self.port}"

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and accept in a background thread; returns the
        bound ``(host, port)`` (the OS picks the port when 0)."""
        if self._sock is not None:
            return (self.host, self.port)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        self.host, self.port = sock.getsockname()[:2]
        self._sock = sock
        self._stopped.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"repro-worker-{self.port}", daemon=True
        )
        self._accept_thread.start()
        _log.info(
            "worker agent listening",
            extra={"address": self.address, "slots": self.slots, "pid": os.getpid()},
        )
        return (self.host, self.port)

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` (the CLI entry point)."""
        self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Stop accepting and release the listening socket (idempotent).
        The dataset cache is dropped — a restarted agent must be
        re-shipped its datasets, which is exactly the cache-miss path
        the driver recovers from."""
        self._stopped.set()
        self._close_listener()
        self._datasets.clear()

    def _close_listener(self) -> None:
        """Close the listening socket and join the accept thread
        (idempotent); from here on the port refuses connections."""
        sock, self._sock = self._sock, None
        thread, self._accept_thread = self._accept_thread, None
        if sock is not None:
            # shutdown() wakes a thread blocked in accept(); close()
            # alone leaves it holding a kernel reference to the listen
            # socket, so the port would stay bound and a restarted agent
            # on the same address could never come up
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    def _die(self) -> None:
        """Enact an injected kill: the whole agent goes away."""
        if self.allow_exit:  # pragma: no cover - exercised in CI agents
            os._exit(1)
        self.stop()

    # -- serving --------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            sock = self._sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except OSError:
                return  # listening socket closed by stop()
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                try:
                    request = recv_msg(conn)
                except ProtocolError as exc:
                    # truncated/garbage frame: drop the connection; the
                    # driver sees a closed socket and treats the chunk
                    # as lost
                    _log.warning(
                        "worker dropped a malformed request",
                        extra={"address": self.address, "reason": str(exc)},
                    )
                    return
                self._handle(conn, request)
        except (OSError, ProtocolError):  # peer went away mid-reply
            pass

    def _handle(self, conn: socket.socket, request: dict) -> None:
        op = request.get("op")
        if op == "ping":
            send_msg(conn, {
                "ok": True,
                "pid": os.getpid(),
                "slots": self.slots,
                "python": tuple(sys.version_info[:2]),
                "datasets": sorted(self._datasets),
            })
        elif op == "put_dataset":
            fingerprint = str(request["fingerprint"])
            cached = fingerprint in self._datasets
            if not cached:
                array = np.frombuffer(
                    request["blob"], dtype=np.dtype(request["dtype"])
                ).reshape(tuple(request["shape"]))
                array.setflags(write=False)
                self._datasets[fingerprint] = array
                _log.info(
                    "dataset cached",
                    extra={"address": self.address, "fingerprint": fingerprint,
                           "nbytes": int(array.nbytes)},
                )
            send_msg(conn, {"ok": True, "cached": cached})
        elif op == "run":
            self._handle_run(conn, request)
        elif op == "shutdown":
            # refuse new connections before acknowledging, so a caller
            # that got the reply never finds the port still open
            self._close_listener()
            send_msg(conn, {"ok": True})
            self.stop()
        else:
            send_msg(conn, {"ok": False, "fatal": f"unknown op {op!r}"})

    def _handle_run(self, conn: socket.socket, request: dict) -> None:
        inject = request.get("inject")
        if inject == "drop":
            return  # close without a reply: the driver's read fails
        if inject == "kill":
            self._die()
            return

        heartbeat_s = float(request.get("heartbeat_s", 0.2))
        reply: dict = {}
        done = threading.Event()

        def work() -> None:
            try:
                if inject == "delay":
                    time.sleep(float(request.get("delay_s", 0.0)))
                reply.update(self._run_chunk(request))
            finally:
                done.set()

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        beats = 0
        while not done.wait(heartbeat_s):
            beats += 1
            send_msg(conn, {"hb": beats})  # OSError → peer gone → unwind
        if inject == "corrupt":
            send_msg(conn, {"ok": True, "blob": b"\xde\xad\xbe\xef"})
            return
        send_msg(conn, reply)

    def _run_chunk(self, request: dict) -> dict:
        with self._slots_sem:
            try:
                payload = loads_task(request["blob"], self._datasets)
            except _DatasetMiss as miss:
                return {"ok": False, "need_dataset": miss.fingerprint}
            except Exception:
                return {"ok": False, "fatal": traceback.format_exc()}
            t_start = time.perf_counter()
            try:
                if request["mode"] == "machines":
                    fn, machines = payload
                    counting = _counting_layers(machines[0].metric) if machines else []
                    values = []
                    for mach in machines:
                        before = [(c.calls, c.evaluations) for c in counting]
                        value = fn(mach)
                        deltas = [
                            (c.calls - b_calls, c.evaluations - b_evals)
                            for c, (b_calls, b_evals) in zip(counting, before)
                        ]
                        values.append((value, mach.rng.bit_generator.state, deltas))
                else:
                    fn, indices = payload
                    values = [fn(i) for i in indices]
            except BaseException:
                return {"ok": False, "fatal": traceback.format_exc()}
            span = {
                "name": "remote/chunk",
                "worker": int(request["worker"]),
                "batch": int(request["batch"]),
                "attempt": int(request["attempt"]),
                "chunk_size": len(request["chunk"]),
                "first_index": int(request["chunk"][0]) if request["chunk"] else -1,
                "os_pid": os.getpid(),
                "start_time": t_start,
                "end_time": time.perf_counter(),
            }
            ctx = TraceContext.from_traceparent(request.get("traceparent"))
            if ctx is not None:
                span["trace_id"] = ctx.trace_id
                span["span_id"] = ctx.span_id
                span["parent_span_id"] = request.get("parent_span")
            return {
                "ok": True,
                "blob": pickle.dumps((values, span), protocol=pickle.HIGHEST_PROTOCOL),
            }


# -- the driver side ----------------------------------------------------------


class _RemoteWorkerState:
    """Driver-side record of one worker agent."""

    __slots__ = ("addr", "alive", "reason", "datasets", "dispatched", "lost")

    def __init__(self, addr: Tuple[str, int]) -> None:
        self.addr = addr
        self.alive = True
        self.reason = ""
        self.datasets: set = set()
        self.dispatched = 0
        self.lost = 0

    @property
    def label(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"

    def mark_dead(self, reason: str) -> None:
        self.alive = False
        self.reason = reason

    def status(self) -> dict:
        return {
            "alive": self.alive,
            "reason": self.reason,
            "dispatched": self.dispatched,
            "lost": self.lost,
        }


class _PoolFailure(Exception):
    """The remote pool cannot finish the batch: every worker is dead,
    the retry budget is exhausted, or the task cannot be shipped.  The
    message aggregates every failed chunk's reason."""


class RemoteExecutor:
    """Dispatch per-machine work to remote :class:`WorkerAgent`\\ s.

    Parameters
    ----------
    workers:
        Worker addresses — a ``'host:port,host:port'`` string or a list
        of ``'host:port'`` / ``(host, port)`` items.  Defaults to
        :data:`REMOTE_WORKERS_ENV_VAR` (``REPRO_REMOTE_WORKERS``).
    max_workers:
        Optional cap on how many of the addresses are used.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; its remote layer
        (connection drop / worker kill / response corruption / slow
        worker) is decided in the driver — so observers see every
        injection — and enacted by the agents.
    chunk_retries:
        Times a lost chunk is re-dispatched (to a surviving worker)
        before the batch degrades to the local ladder.
    lease_s:
        Lease renewed by each worker heartbeat; a silent worker
        forfeits its chunk after this long.
    chunk_timeout_s:
        Hard per-chunk deadline — heartbeats cannot extend a chunk
        beyond this.
    connect_timeout_s:
        TCP connect timeout; a refused/unreachable worker is marked
        dead immediately.
    backoff_s / max_backoff_s:
        Exponential backoff between re-dispatch waves, with
        deterministic ±25% jitter (seeded by the batch coordinates, so
        chaos runs replay byte-identically).

    The degradation ladder (each rung records its reason in
    :attr:`degradations` and emits a recovery
    :class:`~repro.obs.events.FaultEvent`):

    1. lost chunks re-dispatch to surviving workers (bounded);
    2. a batch the pool cannot finish falls to a local
       :class:`~repro.mpc.executor.ProcessExecutor`;
    3. when fork itself is unavailable, the batch re-runs serially in
       the driver.

    Once every worker is dead the pool loss is permanent:
    :attr:`fallback_reason` is set and later batches go straight to the
    local ladder without re-probing sockets.
    """

    def __init__(
        self,
        workers=None,
        *,
        max_workers: Optional[int] = None,
        faults=None,
        chunk_retries: int = 2,
        lease_s: float = 2.0,
        chunk_timeout_s: float = 120.0,
        connect_timeout_s: float = 2.0,
        heartbeat_s: float = 0.2,
        backoff_s: float = 0.02,
        max_backoff_s: float = 0.5,
    ) -> None:
        if chunk_retries < 0:
            raise ValueError(f"chunk_retries must be >= 0, got {chunk_retries}")
        addrs = parse_worker_addresses(workers) if workers is not None else workers_from_remote_env()
        if max_workers is not None:
            addrs = addrs[: max(1, int(max_workers))]
        self._workers: List[_RemoteWorkerState] = [_RemoteWorkerState(a) for a in addrs]
        self.faults = faults
        self.chunk_retries = int(chunk_retries)
        self.lease_s = float(lease_s)
        self.chunk_timeout_s = float(chunk_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.heartbeat_s = float(heartbeat_s)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        #: permanent degradation off the remote pool (no addresses, or
        #: every worker died); per-batch reasons live in degradations
        self.fallback_reason: Optional[str] = None
        if not self._workers:
            self.fallback_reason = (
                f"no remote workers configured (set {REMOTE_WORKERS_ENV_VAR} "
                "or pass --workers HOST:PORT,...)"
            )
        #: per-batch degradation reasons, ProcessExecutor-shaped
        self.degradations: List[str] = []
        self.faults_injected = 0
        self.chunk_retries_used = 0
        self.serial_fallbacks = 0
        # remote-specific counters (superset of the ProcessExecutor set)
        self.dispatched_chunks = 0
        self.redispatched_chunks = 0
        self.duplicate_results = 0
        self.datasets_shipped = 0
        self.local_fallbacks = 0
        self._batch_no = 0
        self._pinged = False
        self._dataset: Optional[Tuple[str, np.ndarray]] = None
        self._cluster_ref: Optional[weakref.ref] = None
        self._local: Optional[ProcessExecutor] = None
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster: locate the point matrix for the dataset
        cache, keep a weak back-reference for observability, and probe
        the pool once."""
        self._cluster_ref = weakref.ref(cluster)
        array = find_points_array(cluster.metric)
        if array is not None:
            self._dataset = (dataset_fingerprint(array), array)
        self._ping_pool()

    def set_fault_plan(self, faults) -> None:
        """Install (or clear, with ``None``) the fault plan."""
        self.faults = faults

    def shutdown(self) -> None:
        """Release the local fallback executor (idempotent).  Worker
        agents outlive their drivers by design; use
        :meth:`shutdown_agents` to stop them too."""
        if self._local is not None:
            self._local.shutdown()

    def shutdown_agents(self) -> None:
        """Ask every still-alive agent to exit (best effort)."""
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                with socket.create_connection(
                    worker.addr, timeout=self.connect_timeout_s
                ) as sock:
                    send_msg(sock, {"op": "shutdown"})
                    sock.settimeout(self.connect_timeout_s)
                    recv_msg(sock)
            except (OSError, ProtocolError):
                pass
            worker.mark_dead("shut down by driver")

    # -- observability --------------------------------------------------------

    def _alive(self) -> List[_RemoteWorkerState]:
        return [w for w in self._workers if w.alive]

    def effective_workers(self, count: int | None = None) -> int:
        """Workers a ``count``-task batch would actually run on: the
        *surviving* pool size, not the configured one — and the local
        ladder's parallelism once the pool is gone."""
        alive = len(self._alive())
        if self.fallback_reason is not None or alive == 0:
            return self._local_executor().effective_workers(count)
        return alive if count is None else max(1, min(alive, count))

    def pool_status(self) -> dict:
        """Per-worker liveness for health surfaces (``/healthz``)."""
        return {
            "backend": "remote",
            "configured": len(self._workers),
            "alive": len(self._alive()),
            "fallback_reason": self.fallback_reason,
            "workers": {w.label: w.status() for w in self._workers},
        }

    def recovery_stats(self) -> dict:
        """Injection/recovery counters: the ProcessExecutor keys plus
        the remote pool's dispatch/recovery/liveness extras."""
        return {
            "faults_injected": self.faults_injected,
            "chunk_retries": self.chunk_retries_used,
            "serial_fallbacks": self.serial_fallbacks,
            "degradations": list(self.degradations),
            "dispatched_chunks": self.dispatched_chunks,
            "redispatched_chunks": self.redispatched_chunks,
            "duplicate_results": self.duplicate_results,
            "datasets_shipped": self.datasets_shipped,
            "local_fallbacks": self.local_fallbacks,
            "workers_lost": sum(1 for w in self._workers if not w.alive),
            "effective_workers": self.effective_workers(),
            "workers": {w.label: w.status() for w in self._workers},
        }

    def _emit_fault(self, kind: str, injected: bool, target: str = "",
                    attempt: int = 0, detail: str = "") -> None:
        cluster = self._cluster_ref() if self._cluster_ref is not None else None
        # bind() runs from the cluster constructor, before the hub
        # exists — events from the initial pool probe are log-only
        obs = getattr(cluster, "obs", None)
        if obs is None:
            return
        obs.emit_fault(
            FaultEvent(
                layer="remote", kind=kind, injected=injected,
                round_no=getattr(cluster, "round_no", -1), target=target,
                attempt=attempt, detail=detail,
            )
        )

    def _mark_dead(self, worker: _RemoteWorkerState, reason: str) -> None:
        if not worker.alive:
            return
        worker.mark_dead(reason)
        self._emit_fault("worker_lost", injected=False,
                         target=worker.label, detail=reason)
        _log.warning(
            "remote worker lost",
            extra={"worker": worker.label, "reason": reason,
                   "alive": len(self._alive())},
        )
        if not self._alive() and self.fallback_reason is None:
            reasons = "; ".join(
                f"{w.label}: {w.reason}" for w in self._workers
            )
            self.fallback_reason = f"remote pool lost ({reasons})"
            self._emit_fault("pool_lost", injected=False, detail=self.fallback_reason)

    # -- local degradation ladder ---------------------------------------------

    def _local_executor(self) -> ProcessExecutor:
        if self._local is None:
            self._local = ProcessExecutor(
                faults=self.faults, chunk_retries=self.chunk_retries
            )
            cluster = self._cluster_ref() if self._cluster_ref is not None else None
            if cluster is not None:
                self._local.bind(cluster)
        return self._local

    def _record_degradation(self, reason: str) -> None:
        self.degradations.append(reason)
        local = self._local_executor()
        if local.fallback_reason is None:
            self.local_fallbacks += 1
            self._emit_fault("local_fallback", injected=False, detail=reason)
        else:
            self.serial_fallbacks += 1
            self._emit_fault("serial_fallback", injected=False, detail=reason)
        _log.warning(
            "remote batch degraded to local execution",
            extra={"reason": reason, "ladder": "process"
                   if local.fallback_reason is None else "serial"},
        )

    # -- dispatch -------------------------------------------------------------

    def _ping_pool(self) -> None:
        """Probe every worker once: liveness + Python version match
        (closures travel as marshalled code, which is version-bound)."""
        if self._pinged:
            return
        self._pinged = True
        expected = tuple(sys.version_info[:2])
        for worker in self._workers:
            try:
                with socket.create_connection(
                    worker.addr, timeout=self.connect_timeout_s
                ) as sock:
                    sock.settimeout(self.lease_s)
                    send_msg(sock, {"op": "ping"})
                    reply = recv_msg(sock)
                remote_py = tuple(reply.get("python", ()))
                if remote_py != expected:
                    self._mark_dead(
                        worker,
                        f"python {'.'.join(map(str, remote_py))} != "
                        f"driver {'.'.join(map(str, expected))}",
                    )
            except (OSError, ProtocolError) as exc:
                self._mark_dead(worker, f"unreachable: {exc}")

    def _retry_delay(self, attempt: int, key) -> float:
        """Exponential backoff with deterministic ±25% jitter."""
        base = min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
        digest = hashlib.blake2b(
            repr((key, attempt)).encode(), digest_size=8
        ).digest()
        jitter = 0.75 + 0.5 * (int.from_bytes(digest, "big") / 2**64)
        return min(base * jitter, self.max_backoff_s)

    def _ship_dataset(self, worker: _RemoteWorkerState) -> None:
        """Ship the point matrix to one worker (once per fingerprint)."""
        if self._dataset is None:
            return
        fingerprint, array = self._dataset
        with socket.create_connection(
            worker.addr, timeout=self.connect_timeout_s
        ) as conn:
            conn.settimeout(max(self.lease_s, self.chunk_timeout_s))
            send_msg(conn, {
                "op": "put_dataset",
                "fingerprint": fingerprint,
                "shape": tuple(array.shape),
                "dtype": str(array.dtype),
                "blob": np.ascontiguousarray(array).tobytes(),
            })
            reply = recv_msg(conn)
        if not reply.get("ok"):  # pragma: no cover - protocol guard
            raise ProtocolError(f"put_dataset refused: {reply!r}")
        worker.datasets.add(fingerprint)
        self.datasets_shipped += 1

    def _store_result(self, results: dict, chunk_no: int, values, lock) -> bool:
        """First-writer-wins slot fill; duplicates are counted, not
        applied (a re-dispatched chunk's late original result)."""
        with lock:
            if chunk_no in results:
                self.duplicate_results += 1
                self._emit_fault(
                    "duplicate_result", injected=False,
                    target=f"chunk {chunk_no}",
                    detail="late result after lease forfeit; first writer kept",
                )
                return False
            results[chunk_no] = values
            return True

    def _dispatch_chunk(
        self,
        worker: _RemoteWorkerState,
        request: dict,
        results: dict,
        chunk_no: int,
        lock,
    ) -> Tuple[str, object]:
        """Send one chunk to one worker under a heartbeated lease.

        Returns ``("ok", span_dict_or_None)``, ``("fatal", tb_text)``,
        or ``("lost", reason)``.  Connect failures and lease expiry mark
        the worker dead; a dropped connection or corrupt payload only
        loses the chunk (the agent may well still be healthy).
        """
        label = worker.label
        chunk_head = request["chunk"][:3]
        try:
            sock = socket.create_connection(worker.addr, timeout=self.connect_timeout_s)
        except OSError as exc:
            self._mark_dead(worker, f"connect failed: {exc}")
            return ("lost", f"worker {label} unreachable: {exc} (chunk {chunk_head}…)")
        worker.dispatched += 1
        self.dispatched_chunks += 1
        deadline = time.monotonic() + self.chunk_timeout_s
        try:
            sock.settimeout(self.lease_s)
            send_msg(sock, request)
            while True:
                if time.monotonic() > deadline:
                    worker.lost += 1
                    self._mark_dead(worker, "chunk deadline exceeded")
                    self._abandon(sock, results, chunk_no, label)
                    return ("lost",
                            f"worker {label} exceeded the {self.chunk_timeout_s}s "
                            f"chunk deadline (chunk {chunk_head}…)")
                try:
                    reply = recv_msg(sock)
                except socket.timeout:
                    worker.lost += 1
                    self._mark_dead(worker, f"lease expired ({self.lease_s}s without a heartbeat)")
                    self._abandon(sock, results, chunk_no, label)
                    return ("lost",
                            f"worker {label} lease expired after {self.lease_s}s "
                            f"(chunk {chunk_head}…)")
                if "hb" in reply:
                    continue  # lease renewed
                break
        except (OSError, ProtocolError) as exc:
            worker.lost += 1
            sock.close()
            return ("lost",
                    f"worker {label} connection lost: {exc} (chunk {chunk_head}…)")
        sock.close()
        if reply.get("ok"):
            try:
                values, span = pickle.loads(reply["blob"])
            except Exception:
                worker.lost += 1
                return ("lost",
                        f"worker {label} returned an undecodable payload "
                        f"(chunk {chunk_head}…)")
            stored = self._store_result(results, chunk_no, values, lock)
            return ("ok", span if stored else None)
        if "need_dataset" in reply:
            return ("need_dataset", reply["need_dataset"])
        return ("fatal", str(reply.get("fatal", "worker reported an unknown error")))

    def _abandon(self, sock: socket.socket, results: dict, chunk_no: int, label: str) -> None:
        """Keep listening on a forfeited chunk's socket in the
        background: if the slow worker eventually answers, the late
        result hits the first-writer-wins gate instead of a closed
        port (and is counted as a duplicate)."""
        lock = self._lock

        def reap() -> None:
            try:
                sock.settimeout(self.chunk_timeout_s)
                while True:
                    reply = recv_msg(sock)
                    if "hb" in reply:
                        continue
                    if reply.get("ok"):
                        values, _span = pickle.loads(reply["blob"])
                        self._store_result(results, chunk_no, values, lock)
                    return
            except Exception:
                return
            finally:
                sock.close()

        threading.Thread(target=reap, daemon=True).start()

    def _remote_map(self, mode: str, fn, items: Sequence, count: int) -> list:
        """Strided chunks over the surviving pool, waves of dispatch
        with bounded re-dispatch — the remote analogue of
        ``ProcessExecutor._fork_map``."""
        self._ping_pool()
        alive = self._alive()
        if not alive:
            raise _PoolFailure(self.fallback_reason or "no live remote workers")
        workers_n = min(len(alive), count)
        self._batch_no += 1
        batch_no = self._batch_no
        plan = self.faults
        cluster = self._cluster_ref() if self._cluster_ref is not None else None
        parent_ctx = cluster.obs.trace_parent() if cluster is not None else None

        chunks = [list(range(w, count, workers_n)) for w in range(workers_n)]
        pending: List[Tuple[int, List[int]]] = [
            (w, chunk) for w, chunk in enumerate(chunks) if chunk
        ]
        results: dict = {}
        lock = self._lock
        earlier_reasons: List[str] = []
        attempt = 0
        while True:
            alive = self._alive()
            if not alive:
                raise _PoolFailure(
                    "; ".join(earlier_reasons) or "no live remote workers"
                )
            # build and fire this wave concurrently; each dispatch holds
            # its own lease, so the wave lasts as long as its slowest chunk
            wave: List[Tuple[int, List[int], _RemoteWorkerState, dict]] = []
            for widx, chunk in pending:
                worker = alive[(widx + attempt) % len(alive)]
                try:
                    blob = self._build_blob(mode, fn, items, chunk)
                except Exception as exc:
                    raise _PoolFailure(
                        f"task cannot be shipped to remote workers: {exc!r}"
                    ) from None
                action = plan.remote_fault(batch_no, widx, attempt) if plan else None
                if action is not None:
                    self.faults_injected += 1
                    kind = {"drop": "connection_drop", "kill": "worker_kill",
                            "corrupt": "payload_corrupt", "delay": "worker_delay"}[action]
                    self._emit_fault(
                        kind, injected=True,
                        target=f"worker {worker.label} chunk {chunk[:3]}",
                        attempt=attempt, detail=f"batch {batch_no}",
                    )
                    _log.info(
                        "remote fault injected",
                        extra={"kind": kind, "worker": worker.label,
                               "batch": batch_no, "attempt": attempt},
                    )
                ctx = (
                    parent_ctx.child("remote/chunk")
                    if parent_ctx is not None else None
                )
                request = {
                    "op": "run",
                    "mode": mode,
                    "blob": blob,
                    "batch": batch_no,
                    "worker": widx,
                    "attempt": attempt,
                    "chunk": list(chunk),
                    "traceparent": ctx.to_traceparent() if ctx is not None else None,
                    "parent_span": ctx.parent_id if ctx is not None else None,
                    "inject": action,
                    "delay_s": plan.remote_delay_s if plan is not None else 0.0,
                    "heartbeat_s": self.heartbeat_s,
                }
                if self._dataset is not None and self._dataset[0] not in worker.datasets:
                    try:
                        self._ship_dataset(worker)
                    except (OSError, ProtocolError) as exc:
                        self._mark_dead(worker, f"dataset ship failed: {exc}")
                wave.append((widx, chunk, worker, request))

            outcomes: List[Optional[Tuple[str, object]]] = [None] * len(wave)

            def fire(i: int, widx: int, chunk: List[int],
                     worker: _RemoteWorkerState, request: dict) -> None:
                if not worker.alive:
                    outcomes[i] = ("lost", f"worker {worker.label} already dead: "
                                           f"{worker.reason} (chunk {chunk[:3]}…)")
                    return
                outcome = self._dispatch_chunk(worker, request, results, widx, lock)
                if outcome[0] == "need_dataset":
                    # freshly restarted worker: its cache is cold — ship
                    # and re-send once, transparently
                    self._emit_fault(
                        "dataset_reship", injected=False, target=worker.label,
                        detail=f"cache miss for {outcome[1]}",
                    )
                    try:
                        self._ship_dataset(worker)
                    except (OSError, ProtocolError) as exc:
                        self._mark_dead(worker, f"dataset ship failed: {exc}")
                        outcomes[i] = ("lost",
                                       f"worker {worker.label} lost its dataset and "
                                       f"could not be re-shipped: {exc}")
                        return
                    outcome = self._dispatch_chunk(worker, request, results, widx, lock)
                if outcome[0] == "lost" and request.get("inject") == "kill":
                    # the plan killed this agent; don't burn a retry
                    # probing its corpse next wave
                    self._mark_dead(worker, "injected worker kill")
                outcomes[i] = outcome

            threads = [
                threading.Thread(target=fire, args=(i,) + entry, daemon=True)
                for i, entry in enumerate(wave)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            fatal: List[str] = []
            retryable: List[Tuple[int, List[int]]] = []
            reasons: List[str] = []
            for (widx, chunk, worker, _request), outcome in zip(wave, outcomes):
                status, payload = outcome
                if status == "ok":
                    if payload is not None and cluster is not None:
                        cluster.obs.emit_exec_span(ExecSpanRecord(**payload))
                elif status == "fatal":
                    fatal.append(str(payload))
                else:  # "lost"
                    if widx in results:
                        # a reaper salvaged the late result meanwhile
                        continue
                    reasons.append(str(payload))
                    retryable.append((widx, chunk))
            if fatal:
                raise _PoolFailure("; ".join(fatal + reasons))
            if not retryable:
                return self._gather(results, chunks, count)
            if attempt >= self.chunk_retries:
                raise _PoolFailure(
                    "; ".join(earlier_reasons + reasons)
                    + f" (chunk retry budget {self.chunk_retries} exhausted)"
                )
            earlier_reasons.extend(reasons)
            self.chunk_retries_used += len(retryable)
            self.redispatched_chunks += len(retryable)
            for (widx, chunk), reason in zip(retryable, reasons):
                self._emit_fault(
                    "chunk_redispatch", injected=False,
                    target=f"chunk {widx} {chunk[:3]}",
                    attempt=attempt + 1, detail=reason,
                )
                _log.warning(
                    "remote chunk lost; re-dispatching to survivors",
                    extra={"chunk": widx, "batch": batch_no,
                           "attempt": attempt + 1, "reason": reason},
                )
            pending = retryable
            attempt += 1
            time.sleep(self._retry_delay(attempt, (batch_no, "redispatch")))

    def _gather(self, results: dict, chunks: List[List[int]], count: int) -> list:
        """Flatten per-chunk value lists back into task-index order."""
        out: list = [None] * count
        for chunk_no, chunk in enumerate(chunks):
            if not chunk:
                continue
            values = results[chunk_no]
            for i, value in zip(chunk, values):
                out[i] = value
        return out

    def _build_blob(self, mode: str, fn, items: Sequence, chunk: List[int]) -> bytes:
        if mode == "machines":
            payload = (fn, [items[i] for i in chunk])
        else:
            payload = (fn, list(chunk))
        return dumps_task(payload, dataset=self._dataset)

    # -- the ExecutionBackend surface ----------------------------------------

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)`` across the pool,
        in index order; degrades down the local ladder when the pool
        cannot finish."""
        if count <= 1:
            return [fn(i) for i in range(count)]
        if self.fallback_reason is not None or not self._alive():
            return self._local_executor().map_indexed(fn, count)
        try:
            return self._remote_map("indexed", fn, range(count), count)
        except _PoolFailure as exc:
            self._record_degradation(str(exc))
            return self._local_executor().map_indexed(fn, count)

    def map_machines(self, fn, machines: Sequence, metric=None) -> list:
        """Machine-aware dispatch with state synchronisation, shipped
        over the wire: workers return ``(value, rng_state,
        oracle_deltas)`` per machine, the driver replays them — a
        remote run is bit-identical to a serial one, CountingOracle
        ledger included."""
        count = len(machines)
        if count <= 1:
            return [fn(mach) for mach in machines]
        if self.fallback_reason is not None or not self._alive():
            return self._local_executor().map_machines(fn, machines, metric=metric)
        try:
            packed = self._remote_map("machines", fn, machines, count)
        except _PoolFailure as exc:
            self._record_degradation(str(exc))
            return self._local_executor().map_machines(fn, machines, metric=metric)

        counting = _counting_layers(metric)
        values = []
        for i, (value, rng_state, deltas) in enumerate(packed):
            machines[i].rng.bit_generator.state = rng_state
            for layer, (d_calls, d_evals) in zip(counting, deltas):
                layer.calls += d_calls
                layer.evaluations += d_evals
            values.append(value)
        return values
