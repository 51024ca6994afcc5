"""Pass-through wrappers that time each layer from outside the program.

Each wrapper is handed to a public entry point and forwards every call
unchanged, so a wrapped run computes exactly what an unwrapped one does
(the benchmark's tests check this on the serial and process backends):

* :class:`TimedOracle` — a :class:`~repro.metric.oracle.CountingOracle`
  given as ``metric=``; times ``_pairwise_kernel`` and the id helpers.
* :class:`TimedBackend` — an execution backend given as ``backend=``;
  times ``map_machines`` / ``map_indexed`` and each task run in this
  process.
* :class:`LayerObserver` — an :class:`~repro.obs.Observer` on
  ``cluster.obs``; times ``step()`` barriers and counts probe, MIS-round
  and executor-chunk spans.
* :class:`TimedClient` — a :class:`~repro.service.ServiceClient`;
  times each HTTP call.

All of them record into one :class:`SpanLog`.  Work done inside forked
workers is invisible here except through the executor's chunk spans and
the oracle ledger the executor replays.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import defaultdict

from repro.metric.oracle import CountingOracle
from repro.obs import Observer
from repro.service import ServiceClient

_now = time.perf_counter


class SpanLog:
    """In-memory spans: ``[name, start, end, parent, op, thread_local]``.

    ``parent`` is the index of the enclosing span opened on the same
    thread (``None`` at the root).  ``thread_local`` is False for spans
    that ran in another process (executor chunks): they overlap their
    parent instead of nesting in it, so they are not subtracted from the
    parent's self time.
    """

    def __init__(self) -> None:
        self.records: list = []
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _op(self, stack: list):
        return self.records[stack[0]][4] if stack else None

    def open(self, name: str, op=None) -> int:
        """Open a span on this thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        idx = len(self.records)
        self.records.append([name, _now(), None, parent,
                             op if op is not None else self._op(stack), True])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        stack = self._stack()
        self.records[idx][2] = _now()
        if stack and stack[-1] == idx:
            stack.pop()

    def add(self, name: str, start: float, end: float, thread_local: bool = True) -> None:
        """Record a finished leaf span under the current open span."""
        stack = self._stack()
        self.records.append([name, start, end, stack[-1] if stack else None,
                             self._op(stack), thread_local])

    def totals(self) -> dict:
        """Per span name: ``{"n", "total_s", "self_s"}``.

        Self time is a span's duration minus the durations of its
        children that ran on the same thread.
        """
        child_s = defaultdict(float)
        for name, start, end, parent, _op, local in self.records:
            if parent is not None and local and end is not None:
                child_s[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, _parent, _op, _local) in enumerate(self.records):
            if end is None:
                continue
            row = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            row["n"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[idx]
        return out

    def write_jsonl(self, path, header: dict) -> None:
        """One JSON object per span, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for idx, (name, start, end, parent, op, local) in enumerate(self.records):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "in_process": local}) + "\n")


class _Span:
    """``with`` form of :meth:`SpanLog.open` / :meth:`SpanLog.close`."""

    __slots__ = ("log", "name", "op", "idx")

    def __init__(self, log: SpanLog, name: str, op=None) -> None:
        self.log, self.name, self.op = log, name, op

    def __enter__(self):
        self.idx = self.log.open(self.name, self.op)
        return self

    def __exit__(self, *exc):
        self.log.close(self.idx)
        return False


def span(log: SpanLog, name: str, op=None) -> _Span:
    return _Span(log, name, op)


class TimedOracle(CountingOracle):
    """A CountingOracle that also times the kernel and the id helpers.

    ``calls`` / ``evaluations`` stay the replayed model-level ledger;
    ``local_evals`` and ``bytes_computed`` count only kernel calls made
    in this process.  Bytes are computed from shapes (8-byte floats: the
    two gathered coordinate blocks plus the output matrix), not measured.
    """

    def __init__(self, inner, log: SpanLog) -> None:
        super().__init__(inner)
        self.log = log
        self.local_evals = 0
        self.bytes_computed = 0
        self._dim = inner.point_words()

    def _pairwise_kernel(self, I, J):
        start = _now()
        out = super()._pairwise_kernel(I, J)
        self.log.add("metric.kernel", start, _now())
        self.local_evals += int(I.size) * int(J.size)
        self.bytes_computed += 8 * (int(I.size) * int(J.size)
                                    + (int(I.size) + int(J.size)) * self._dim)
        return out

    def distance(self, i, j):
        with span(self.log, "helpers.distance"):
            return super().distance(i, j)

    def pairwise(self, I, J):
        with span(self.log, "helpers.pairwise"):
            return super().pairwise(I, J)

    def dist_to_set(self, I, T):
        with span(self.log, "helpers.dist_to_set"):
            return super().dist_to_set(I, T)

    def radius(self, X, Y):
        with span(self.log, "helpers.radius"):
            return super().radius(X, Y)

    def diversity(self, S):
        with span(self.log, "helpers.diversity"):
            return super().diversity(S)

    def within(self, I, J, tau):
        with span(self.log, "helpers.within"):
            return super().within(I, J, tau)

    def count_within(self, I, J, tau):
        with span(self.log, "helpers.count_within"):
            return super().count_within(I, J, tau)

    def argmax_dist_to_set(self, I, T):
        with span(self.log, "helpers.argmax_dist_to_set"):
            return super().argmax_dist_to_set(I, T)


class TimedBackend:
    """Execution backend that times the calls it forwards to ``inner``.

    Attributes it does not define (``bind``, ``effective_workers``,
    ``recovery_stats``, …) resolve on the inner backend, so the cluster
    sees the same capabilities.  ``map_machines`` falls back to
    ``map_indexed`` for backends without it, exactly as
    :meth:`~repro.mpc.cluster.MPCCluster.map_machines` does.
    """

    def __init__(self, inner, log: SpanLog) -> None:
        self.inner = inner
        self.log = log
        self.dispatches = 0

    def __getattr__(self, name):
        if name == "inner":  # not yet set (e.g. mid-construction)
            raise AttributeError(name)
        return getattr(self.inner, name)

    def _timed(self, fn):
        log = self.log

        def task(arg):
            with span(log, "executor.task"):
                return fn(arg)

        return task

    def map_machines(self, fn, machines, metric=None):
        self.dispatches += 1
        task = self._timed(fn)
        with span(self.log, "executor.map"):
            mapper = getattr(self.inner, "map_machines", None)
            if mapper is not None:
                return mapper(task, machines, metric=metric)
            return self.inner.map_indexed(lambda i: task(machines[i]), len(machines))

    def map_indexed(self, fn, count):
        self.dispatches += 1
        with span(self.log, "executor.map"):
            return self.inner.map_indexed(self._timed(fn), count)

    def shutdown(self) -> None:
        self.inner.shutdown()


class LayerObserver(Observer):
    """Times round barriers; counts probes, MIS rounds and exec chunks."""

    wants_messages = False  # keep the hub's per-message fast path

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.probes = 0
        self.mis_rounds = 0
        self._round = None

    def on_round_start(self, round_no: int) -> None:
        self._round = self.log.open("mpc.step")

    def on_round_end(self, record) -> None:
        if self._round is not None:
            self.log.close(self._round)
            self._round = None

    def on_span_start(self, span_record) -> None:
        if span_record.name.endswith("/probe"):
            self.probes += 1
        elif span_record.name == "mis/round":
            self.mis_rounds += 1

    def on_exec_span(self, record) -> None:
        self.log.add("executor.chunk", record.start_time, record.end_time,
                     thread_local=False)


_JOB_PATH = re.compile(r"/jobs/[^/?]+$")


def route_kind(method: str, path: str) -> str:
    """Coarse route name of a service request path."""
    path = path.split("?")[0]
    if path.startswith("/datasets"):
        return "dataset"
    if path == "/jobs":
        return "submit" if method == "POST" else "list"
    if _JOB_PATH.search(path):
        return "poll" if method == "GET" else "job"
    return "other"


class TimedClient(ServiceClient):
    """ServiceClient that records one span per HTTP call."""

    def __init__(self, base_url: str, log: SpanLog) -> None:
        super().__init__(base_url)
        self.log = log

    def _request_once(self, method, path, body=None, trace=None):
        start = _now()
        try:
            return super()._request_once(method, path, body, trace=trace)
        finally:
            self.log.add("service.http." + route_kind(method, path), start, _now())
