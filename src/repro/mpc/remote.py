"""Remote multi-host execution: worker agents + a lease-based executor.

:class:`RemoteExecutor` is the third :class:`~repro.mpc.executor.ExecutionBackend`:
it ships per-machine work over TCP to lightweight worker agents
(:class:`WorkerAgent`, started with ``repro worker --listen HOST:PORT``)
instead of forking local processes.  Robustness — not the transport —
is the design center:

* **Framed protocol.**  Every message is one length-prefixed frame
  (8-byte big-endian length + pickled payload), the framing of
  :mod:`repro.mpc.codec` that the process backend's pool uses too.  A
  truncated frame, a closed socket, or an oversized header is a
  :class:`ProtocolError`, never a hang or a partial read.
* **Dataset cache.**  What a batch's base metric holds — the point
  matrix and the arrays derived from it at construction, such as the
  Euclidean squared norms — is shipped **once per dataset fingerprint**
  per worker (the remote analogue of the points a forked pool worker
  inherits); chunk payloads reference those arrays by fingerprint
  through pickle persistent ids.  The dataset is the one of the
  batch's own metric chain, whichever cluster was bound last.  A
  freshly restarted worker answers ``need_dataset`` and the driver
  re-ships transparently.
* **Leases and heartbeats.**  A dispatched chunk holds a lease of
  :attr:`RemoteExecutor.lease_s`; the executing worker heartbeats while
  it computes, each beat renewing the lease up to a hard per-chunk
  deadline.  A worker that stops beating forfeits the chunk.
* **Re-dispatch to survivors.**  Chunks from dead, unresponsive, or
  corrupt-responding workers are re-dispatched to surviving workers
  with exponential backoff and deterministic jitter, bounded by
  ``chunk_retries``.  The batch loop — chunking, retry waves, fault
  accounting, span merging, the first-writer-wins result gate — is the
  :class:`~repro.mpc.dispatch.ChunkDispatcher` shared with
  :class:`~repro.mpc.executor.ProcessExecutor`; this module is the
  socket transport behind it.  A result that arrives *after* its lease
  was forfeited is counted, not applied.
* **Graceful degradation.**  When the whole pool is lost mid-run the
  batch falls to the local process backend, and from there to a serial
  driver re-run — the same ladder, one rung higher.
* **Bit-identity.**  Workers replay nothing into the driver; they
  return ``(value, rng_state, oracle_deltas)`` per machine and the
  driver replays RNG states and CountingOracle deltas exactly as the
  process backend does, so a remote run — faulted or not — is
  bit-identical to a serial one, ledger included.

Closures are shipped by value (code object + cells + referenced
globals) through :mod:`repro.mpc.codec`, the codec the process
backend's pool uses too, so both ends must run the same Python
``major.minor`` — verified at ping time, mismatched workers are
refused with a clear reason rather than a marshal crash mid-run.
"""

from __future__ import annotations

import hashlib
import os
import socket
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mpc.codec import MissingReference, ProtocolError, recv_msg, send_msg
from repro.mpc.dispatch import ChunkDispatcher, lost, read_reply, run_chunk
from repro.mpc.executor import ProcessExecutor, _unwrap, workers_from_env
from repro.obs.logging import get_logger

_log = get_logger("repro.mpc.remote")

#: environment variable listing default remote worker addresses
REMOTE_WORKERS_ENV_VAR = "REPRO_REMOTE_WORKERS"


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
# Tasks travel through the closure codec of :mod:`repro.mpc.codec`.  The
# arrays of the base metric additionally travel as persistent references
# to their dataset's fingerprint, so a chunk payload never embeds the
# dataset — the worker resolves the fingerprint from its cache and
# answers ``need_dataset`` on a miss.


def base_arrays(metric) -> tuple:
    """The arrays the innermost layer of a metric chain holds: its point
    matrix, then every array attribute it derived at construction (the
    Euclidean squared norms, the angular unit vectors, a distance
    matrix, …).  Empty for a chain that holds none."""
    layers = list(_unwrap(metric))
    if not layers:
        return ()
    base = layers[-1]
    arrays = []
    data = getattr(getattr(base, "points", None), "_data", None)
    if isinstance(data, np.ndarray):
        arrays.append(data)
    arrays.extend(value for value in getattr(base, "__dict__", {}).values()
                  if isinstance(value, np.ndarray))
    return tuple(arrays)


def dataset_fingerprint(arrays: Sequence[np.ndarray]) -> str:
    """Content fingerprint of a dataset's arrays (shapes + dtypes + bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
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

    A ``run`` request carries one chunk of a
    :class:`~repro.mpc.dispatch.ChunkDispatcher` batch, which the agent
    runs with :func:`~repro.mpc.dispatch.run_chunk`, the chunk runner
    of the process backend's pool workers too: its ``blob`` decodes to
    ``(meta, fn, args)``, and the reply ``blob`` holds the values and
    the timed span — or the task's traceback.

    Request vocabulary (one request per connection)::

        {"op": "ping"}                          -> {"ok", "pid", "slots", "python", "datasets"}
        {"op": "put_dataset", fingerprint,
         arrays: [(shape, dtype, blob)...]}     -> {"ok", "cached"}
        {"op": "run", blob, inject, delay_s,
         heartbeat_s}                           -> {"hb": n}* then
                                                   {"ok": True, "blob"} |
                                                   {"ok": False, "need_dataset"}
        {"op": "shutdown"}                      -> {"ok": True}

    While a chunk runs, the handler emits ``{"hb": n}`` frames every
    ``heartbeat_s`` seconds; each one renews the driver's lease.
    Injected faults (decided by the driver's seeded
    :class:`~repro.faults.FaultPlan`, enacted here) arrive as
    ``inject``: ``"drop"`` closes the connection without a reply,
    ``"kill"`` terminates the agent (``os._exit`` for a dedicated
    process, a permanent stop for an in-process agent), and the chunk
    runner enacts ``"corrupt"`` (an undecodable reply) and ``"delay"``
    (a ``delay_s`` sleep before computing; heartbeats keep the lease
    alive).
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
        self._datasets: dict[str, tuple] = {}
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
                arrays = []
                for shape, dtype, blob in request["arrays"]:
                    array = np.frombuffer(blob, dtype=np.dtype(dtype)).reshape(tuple(shape))
                    array.setflags(write=False)
                    arrays.append(array)
                self._datasets[fingerprint] = arrays = tuple(arrays)
                _log.info(
                    "dataset cached",
                    extra={"address": self.address, "fingerprint": fingerprint,
                           "nbytes": sum(int(a.nbytes) for a in arrays)},
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
                with self._slots_sem:
                    reply.update(ok=True, blob=run_chunk(request, self._cached_dataset))
            except MissingReference as miss:
                reply.update(ok=False, need_dataset=miss.args[0])
            finally:
                done.set()

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        beats = 0
        while not done.wait(heartbeat_s):
            beats += 1
            send_msg(conn, {"hb": beats})  # OSError → peer gone → unwind
        send_msg(conn, reply)

    def _cached_dataset(self, pid) -> np.ndarray:
        """Resolve a ``("repro-dataset", fingerprint, index)`` codec
        reference; :class:`~repro.mpc.codec.MissingReference` when this
        agent does not hold the dataset."""
        kind, fingerprint, index = pid
        if kind != "repro-dataset":  # pragma: no cover - protocol guard
            raise ProtocolError(f"unknown persistent id {pid!r}")
        try:
            return self._datasets[fingerprint][index]
        except KeyError:
            raise MissingReference(fingerprint) from None


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

    def __str__(self) -> str:  # the worker's label: host:port
        return f"{self.addr[0]}:{self.addr[1]}"

    def status(self) -> dict:
        return {key: getattr(self, key) for key in ("alive", "reason", "dispatched", "lost")}


class RemoteExecutor(ChunkDispatcher):
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

    layer = "remote"
    span_name = "remote/chunk"
    retry_kind = "chunk_redispatch"
    retry_target = "chunk {slot} {head}"
    peers = "remote workers"

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
        super().__init__(faults, chunk_retries)
        addrs = parse_worker_addresses(workers) if workers is not None else workers_from_remote_env()
        if max_workers is not None:
            addrs = addrs[: max(1, int(max_workers))]
        self._workers: List[_RemoteWorkerState] = [_RemoteWorkerState(a) for a in addrs]
        self.lease_s = float(lease_s)
        self.chunk_timeout_s = float(chunk_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.heartbeat_s = float(heartbeat_s)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        if not self._workers:
            self.fallback_reason = (
                f"no remote workers configured (set {REMOTE_WORKERS_ENV_VAR} "
                "or pass --workers HOST:PORT,...)"
            )
        # remote-specific counters (superset of the ProcessExecutor set)
        self.dispatched_chunks = 0
        self.datasets_shipped = 0
        self._pinged = False
        #: base metric -> ``(fingerprint, arrays)`` of its dataset
        self._datasets: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._local: Optional[ProcessExecutor] = None

    # -- lifecycle ------------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster: probe the pool once, and bind the local
        fallback too."""
        super().bind(cluster)
        self._ping_pool()
        if self._local is not None:
            self._local.bind(cluster)

    def shutdown(self) -> None:
        """Release the local fallback executor (idempotent).  Worker
        agents outlive their drivers by design; use
        :meth:`shutdown_agents` to stop them too."""
        if self._local is not None:
            self._local.shutdown()

    def shutdown_agents(self) -> None:
        """Ask every still-alive agent to exit (best effort)."""
        for worker in self._alive():
            try:
                self._call(worker, {"op": "shutdown"}, self.connect_timeout_s)
            except (OSError, ProtocolError):
                pass
            worker.alive, worker.reason = False, "shut down by driver"

    def _call(self, worker: _RemoteWorkerState, request: dict, timeout: float) -> dict:
        """One request and its reply, on a fresh connection."""
        with socket.create_connection(worker.addr, timeout=self.connect_timeout_s) as sock:
            sock.settimeout(timeout)
            send_msg(sock, request)
            return recv_msg(sock)

    # -- observability --------------------------------------------------------

    def _alive(self) -> List[_RemoteWorkerState]:
        return [w for w in self._workers if w.alive]

    @property
    def workers_lost(self) -> int:
        """Agents declared dead."""
        return sum(1 for w in self._workers if not w.alive)

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
            "workers": {str(w): w.status() for w in self._workers},
        }

    def recovery_stats(self) -> dict:
        """Injection/recovery counters: the ProcessExecutor keys plus
        the remote pool's dispatch/recovery/liveness extras."""
        return dict(
            super().recovery_stats(),
            dispatched_chunks=self.dispatched_chunks,
            redispatched_chunks=self.chunk_retries_used,
            duplicate_results=self.duplicate_results,
            datasets_shipped=self.datasets_shipped,
            local_fallbacks=self.local_fallbacks,
            workers={str(w): w.status() for w in self._workers},
        )

    def _mark_dead(self, worker: _RemoteWorkerState, reason: str, cluster=None) -> None:
        if not worker.alive:
            return
        worker.alive, worker.reason = False, reason
        self._emit(cluster, "worker_lost", injected=False,
                   target=str(worker), detail=reason)
        _log.warning(
            "remote worker lost",
            extra={"worker": str(worker), "reason": reason,
                   "alive": len(self._alive())},
        )
        if not self._alive() and self.fallback_reason is None:
            reasons = "; ".join(
                f"{w}: {w.reason}" for w in self._workers
            )
            self.fallback_reason = f"remote pool lost ({reasons})"
            self._emit(cluster, "pool_lost", injected=False, detail=self.fallback_reason)

    # -- local degradation ladder ---------------------------------------------

    def _local_executor(self) -> ProcessExecutor:
        if self._local is None:
            self._local = ProcessExecutor(
                faults=self.faults, chunk_retries=self.chunk_retries
            )
            for cluster in self._bound():
                self._local.bind(cluster)
        return self._local

    _next_rung = _local_executor

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
                reply = self._call(worker, {"op": "ping"}, self.lease_s)
                remote_py = tuple(reply.get("python", ()))
                if remote_py != expected:
                    self._mark_dead(
                        worker,
                        f"python {'.'.join(map(str, remote_py))} != "
                        f"driver {'.'.join(map(str, expected))}",
                    )
            except (OSError, ProtocolError) as exc:
                self._mark_dead(worker, f"unreachable: {exc}")

    def _width(self, count: int) -> int:
        self._ping_pool()
        return 0 if self.fallback_reason is not None else min(len(self._alive()), count)

    def _assign(self, slots: List[int], attempt: int) -> list:
        # rotate: a re-dispatched chunk goes to another survivor
        alive = self._alive()
        return [alive[(slot + attempt) % len(alive)] for slot in slots] if alive else []

    def _dataset_for(self, metric) -> Optional[Tuple[str, tuple]]:
        """``(fingerprint, arrays)`` of the dataset a batch on ``metric``
        references, or ``None`` when its base metric holds no arrays.
        The fingerprint is computed once per base metric, and again only
        when the arrays it holds changed."""
        arrays = base_arrays(metric)
        if not arrays:
            return None
        base = list(_unwrap(metric))[-1]
        cached = self._datasets.get(base)
        if cached is None or len(cached[1]) != len(arrays) or any(
                a is not b for a, b in zip(cached[1], arrays)):
            cached = self._datasets[base] = (dataset_fingerprint(arrays), arrays)
        return cached

    def _refs(self, batch) -> list:
        dataset = self._dataset_for(batch.metric)
        if dataset is None:
            return []
        fingerprint, arrays = dataset
        return [(("repro-dataset", fingerprint, i), array) for i, array in enumerate(arrays)]

    def _fault(self, plan, batch_no: int, slot: int, attempt: int) -> tuple:
        return plan.remote_fault(batch_no, slot, attempt), plan.remote_delay_s

    def _before_retry(self, batch_no: int, attempt: int) -> None:
        """Exponential backoff with deterministic ±25% jitter."""
        base = min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
        digest = hashlib.blake2b(
            repr(((batch_no, "redispatch"), attempt)).encode(), digest_size=8
        ).digest()
        jitter = 0.75 + 0.5 * (int.from_bytes(digest, "big") / 2**64)
        time.sleep(min(base * jitter, self.max_backoff_s))

    def _ship_dataset(self, worker: _RemoteWorkerState, dataset, cluster) -> Optional[Exception]:
        """Ship a dataset's arrays to one worker (once per fingerprint); a
        worker that cannot take them is marked dead, and the error returned."""
        fingerprint, arrays = dataset
        try:
            reply = self._call(worker, {
                "op": "put_dataset",
                "fingerprint": fingerprint,
                "arrays": [(tuple(a.shape), str(a.dtype), np.ascontiguousarray(a).tobytes())
                           for a in arrays],
            }, max(self.lease_s, self.chunk_timeout_s))
            if not reply.get("ok"):  # pragma: no cover - protocol guard
                raise ProtocolError(f"put_dataset refused: {reply!r}")
        except (OSError, ProtocolError) as exc:
            self._mark_dead(worker, f"dataset ship failed: {exc}", cluster)
            return exc
        worker.datasets.add(fingerprint)
        self.datasets_shipped += 1
        return None

    def _run_wave(self, batch, frames) -> List[tuple]:
        """Fire the wave's chunks concurrently, each under its own lease,
        so the wave lasts as long as its slowest chunk."""
        dataset = self._dataset_for(batch.metric)
        for frame in frames:
            worker = frame.worker
            if worker.alive and dataset is not None and dataset[0] not in worker.datasets:
                self._ship_dataset(worker, dataset, batch.cluster)
        with ThreadPoolExecutor(len(frames)) as fire:
            return list(fire.map(lambda frame: self._fire(batch, frame), frames))

    def _fire(self, batch, frame) -> tuple:
        worker = frame.worker
        if not worker.alive:
            return lost(worker, f"already dead: {worker.reason}", frame.chunk)
        outcome = self._send_chunk(batch, frame)
        if outcome[0] == "need_dataset":
            # freshly restarted worker: its cache is cold — ship and
            # re-send once, transparently
            self._emit(batch.cluster, "dataset_reship", injected=False,
                       target=str(worker), detail=f"cache miss for {outcome[1]}")
            exc = self._ship_dataset(worker, self._dataset_for(batch.metric), batch.cluster)
            if exc is not None:
                return lost(worker, f"lost its dataset and could not be re-shipped: {exc}",
                            frame.chunk)
            outcome = self._send_chunk(batch, frame)
        if outcome[0] == "lost" and frame.request["inject"] == "kill":
            # the plan killed this agent; don't burn a retry probing its
            # corpse next wave
            self._mark_dead(worker, "injected worker kill", batch.cluster)
        return outcome

    def _send_chunk(self, batch, frame) -> tuple:
        """Send one chunk to its worker under a heartbeated lease.

        Returns the sorted reply, ``("need_dataset", fingerprint)``, or
        ``("lost", reason)``.  Connect failures and lease expiry mark
        the worker dead; a dropped connection or corrupt payload only
        loses the chunk (the agent may well still be healthy).
        """
        worker, chunk = frame.worker, frame.chunk
        try:
            sock = socket.create_connection(worker.addr, timeout=self.connect_timeout_s)
        except OSError as exc:
            self._mark_dead(worker, f"connect failed: {exc}", batch.cluster)
            return lost(worker, f"unreachable: {exc}", chunk)
        worker.dispatched += 1
        self.dispatched_chunks += 1
        deadline = time.monotonic() + self.chunk_timeout_s
        try:
            sock.settimeout(self.lease_s)
            send_msg(sock, dict(frame.request, heartbeat_s=self.heartbeat_s))
            reply = {"hb": 0}
            while "hb" in reply:  # each heartbeat renews the lease
                if time.monotonic() > deadline:
                    return self._forfeit(
                        sock, batch, frame, "chunk deadline exceeded",
                        f"exceeded the {self.chunk_timeout_s}s chunk deadline")
                try:
                    reply = recv_msg(sock)
                except socket.timeout:
                    return self._forfeit(
                        sock, batch, frame,
                        f"lease expired ({self.lease_s}s without a heartbeat)",
                        f"lease expired after {self.lease_s}s")
        except (OSError, ProtocolError) as exc:
            worker.lost += 1
            sock.close()
            return lost(worker, f"connection lost: {exc}", chunk)
        sock.close()
        if "blob" in reply:
            outcome = read_reply(reply["blob"], worker, chunk)
            if outcome[0] == "lost":
                worker.lost += 1
            return outcome
        if "need_dataset" in reply:
            return ("need_dataset", reply["need_dataset"])
        return ("fatal", str(reply.get("fatal", "worker reported an unknown error")))

    def _forfeit(self, sock: socket.socket, batch, frame, why: str, what: str) -> tuple:
        """The worker forfeits its lease and dies.  Its socket stays open
        to a background reaper: if the slow worker eventually answers,
        the late result hits the first-writer-wins gate instead of a
        closed port (and is counted as a duplicate)."""
        frame.worker.lost += 1
        self._mark_dead(frame.worker, why, batch.cluster)

        def reap() -> None:
            try:
                sock.settimeout(self.chunk_timeout_s)
                reply = {"hb": 0}
                while "hb" in reply:
                    reply = recv_msg(sock)
                status, payload = read_reply(reply["blob"], frame.worker, frame.chunk)
                if status == "ok":
                    self._store(batch, frame.slot, payload[0])
            except Exception:
                return
            finally:
                sock.close()

        threading.Thread(target=reap, daemon=True).start()
        return lost(frame.worker, what, frame.chunk)
