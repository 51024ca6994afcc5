"""The observer API and the per-cluster hub.

Every :class:`~repro.mpc.cluster.MPCCluster` owns an :class:`ObserverHub`
as ``cluster.obs``.  The cluster invokes the hub natively from
``step()`` — there is no monkey-patching anywhere — and algorithms open
*phase spans* through it::

    with cluster.obs.span("kcenter/probe", ladder_index=i):
        M = mpc_k_bounded_mis(cluster, tau, k + 1)

Observers subclass :class:`Observer` and override only the hooks they
care about; :meth:`ObserverHub.add` / :meth:`ObserverHub.remove` attach
and detach them at any point of a run.  Hook delivery order within one
round is fixed: ``on_round_start`` → ``on_message`` (per delivered
message, outbox order) → ``on_round_end``.

Spans are tracked even when no observer is attached (the stack must
stay consistent if one attaches mid-run).  Per-message events exist
only while an observer with ``wants_messages`` is attached: the
cluster's collectives queue one entry per sender, and only then does
``step()`` emit one event per (src, dst) message, in the order and with
the words one ``send()`` per pair gives.  Without such an observer no
event is built at all.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.obs.events import (
    ExecSpanRecord,
    FaultEvent,
    MessageEvent,
    RoundRecord,
    SpanRecord,
)
from repro.obs.tracing import TraceContext


class Observer:
    """Base class for cluster observers; every hook is a no-op.

    Subclass and override the hooks you need.  Exceptions raised by a
    hook propagate — observers are trusted, in-process instrumentation,
    not sandboxed plugins.
    """

    #: back-reference to the hub, managed by :meth:`ObserverHub.add` /
    #: :meth:`ObserverHub.remove`
    _hub: Optional["ObserverHub"] = None

    #: set False on subclasses that never override :meth:`on_message` —
    #: when *no* attached observer wants messages, the hub skips
    #: per-message event construction entirely, so an always-attached
    #: aggregator (e.g. the metrics observer) costs nothing on the
    #: message path
    wants_messages: bool = True

    def detach(self) -> None:
        """Remove this observer from its hub (no-op when unattached)."""
        if self._hub is not None:
            self._hub.remove(self)

    def on_round_start(self, round_no: int) -> None:
        """A ``step()`` barrier began; ``round_no`` is the round being
        executed (the cluster's counter has already advanced to it)."""

    def on_message(self, event: MessageEvent) -> None:
        """A message was delivered during the current ``step()``."""

    def on_round_end(self, record: RoundRecord) -> None:
        """The ``step()`` barrier completed."""

    def on_span_start(self, span: SpanRecord) -> None:
        """A named phase span opened (entry snapshots are filled in)."""

    def on_span_end(self, span: SpanRecord) -> None:
        """A named phase span closed (all snapshots are filled in)."""

    def on_fault(self, event: FaultEvent) -> None:
        """A fault was injected, or a recovery action was taken (see
        :mod:`repro.faults` and :class:`FaultEvent`)."""

    def on_exec_span(self, record: ExecSpanRecord) -> None:
        """An executor chunk computed out-of-process completed and
        shipped its span back (process and remote backends; see
        :class:`ExecSpanRecord`)."""


class ObserverHub:
    """Fan-out point between one cluster and its observers.

    The hub owns the observer list and the span stack.  It reads the
    cluster's counters (round number, cumulative words/messages from
    :class:`~repro.mpc.accounting.ClusterStats`, and — when the metric
    is a :class:`~repro.metric.oracle.CountingOracle` — the oracle call
    counters) to snapshot spans at entry and exit.  The cluster owns the
    hub, so the hub holds it weakly: a dropped cluster is freed at once,
    with its executor and worker pool, not at the next cyclic garbage
    collection.
    """

    def __init__(self, cluster) -> None:
        self._cluster = weakref.proxy(cluster)
        self._observers: List[Observer] = []
        self._stack: List[SpanRecord] = []
        self._next_uid = 0
        self._round_t0: Optional[float] = None
        #: attached observers with ``wants_messages`` — the message fast
        #: path stays active while this is 0 even when aggregate-only
        #: observers (metrics) are attached
        self._message_listeners = 0
        #: the run's root trace context (see :meth:`set_trace`)
        self._trace: Optional[TraceContext] = None

    # -- observer management -----------------------------------------------------

    def add(self, observer: Observer) -> Observer:
        """Attach ``observer`` (idempotent); returns it for chaining."""
        if observer not in self._observers:
            self._observers.append(observer)
            observer._hub = self
            if observer.wants_messages:
                self._message_listeners += 1
        return observer

    def remove(self, observer: Observer) -> None:
        """Detach ``observer``; a no-op if it is not attached."""
        try:
            self._observers.remove(observer)
            observer._hub = None
            if observer.wants_messages:
                self._message_listeners -= 1
        except ValueError:
            pass

    def clear(self) -> None:
        for ob in self._observers:
            ob._hub = None
        self._observers.clear()
        self._message_listeners = 0

    def __len__(self) -> int:
        return len(self._observers)

    @property
    def wants_messages(self) -> bool:
        """True while an attached observer has ``wants_messages``: only
        then does ``step()`` emit per-message events."""
        return self._message_listeners > 0

    def __contains__(self, observer: object) -> bool:
        return observer in self._observers

    # -- trace context -------------------------------------------------------------

    def set_trace(self, ctx: Optional[TraceContext]) -> None:
        """Install the run's root :class:`TraceContext` (or clear it).

        Once set, every span opened through :meth:`span` derives a
        deterministic child context — ids land on the records, nested
        spans parent correctly, and :meth:`trace_parent` exposes the
        innermost active context for the executor to ship to forked
        chunk workers.
        """
        self._trace = ctx

    @property
    def trace(self) -> Optional[TraceContext]:
        """The installed root trace context, if any."""
        return self._trace

    def trace_parent(self) -> Optional[TraceContext]:
        """The context new work should parent under: the innermost open
        span's, else the root; ``None`` when tracing is off."""
        span = self.current_span
        if span is not None:
            ctx = getattr(span, "_trace_ctx", None)
            if ctx is not None:
                return ctx
        return self._trace

    # -- span management -----------------------------------------------------------

    @property
    def current_span(self) -> Optional[SpanRecord]:
        """The innermost open span, or ``None`` outside any phase."""
        return self._stack[-1] if self._stack else None

    @property
    def span_depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Open a named phase span for the duration of the ``with`` body.

        Extra keyword arguments become the span's ``attrs`` (e.g.
        ``ladder_index=i``, ``tau=0.5``).  Spans nest; the record keeps
        its parent uid and depth so exporters can rebuild the tree.
        """
        span = self._open_span(name, attrs)
        try:
            yield span
        finally:
            self._close_span(span)

    def _open_span(self, name: str, attrs: dict) -> SpanRecord:
        parent = self.current_span
        span = SpanRecord(
            name=name,
            uid=self._next_uid,
            parent_uid=None if parent is None else parent.uid,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._next_uid += 1
        parent_ctx = self.trace_parent()
        if parent_ctx is not None:
            ctx = parent_ctx.child(name)
            span.trace_id = ctx.trace_id
            span.span_id = ctx.span_id
            span.parent_span_id = ctx.parent_id
            span._trace_ctx = ctx  # transient, for nested derivation
        self._snapshot(span, entry=True)
        self._stack.append(span)
        for ob in self._observers:
            ob.on_span_start(span)
        return span

    def _close_span(self, span: SpanRecord) -> None:
        # close any children left open by a non-local exit (exceptions
        # propagating through nested ``with`` blocks close inner spans
        # first, so in practice this pops exactly one frame)
        while self._stack and self._stack[-1] is not span:
            self._close_span(self._stack[-1])
        if self._stack:
            self._stack.pop()
        self._snapshot(span, entry=False)
        for ob in self._observers:
            ob.on_span_end(span)

    def _snapshot(self, span: SpanRecord, entry: bool) -> None:
        stats = self._cluster.stats
        metric = self._cluster.metric
        calls = getattr(metric, "calls", 0)
        evals = getattr(metric, "evaluations", 0)
        now = time.perf_counter()
        if entry:
            span.start_time = now
            span.start_round = self._cluster.round_no
            span.start_words = stats.total_words
            span.start_messages = stats.total_messages
            span.start_oracle_calls = int(calls)
            span.start_oracle_evaluations = int(evals)
        else:
            span.end_time = now
            span.end_round = self._cluster.round_no
            span.end_words = stats.total_words
            span.end_messages = stats.total_messages
            span.end_oracle_calls = int(calls)
            span.end_oracle_evaluations = int(evals)

    # -- emission (called by MPCCluster) -----------------------------------------

    def emit_round_start(self, round_no: int) -> None:
        self._round_t0 = time.perf_counter()
        for ob in self._observers:
            ob.on_round_start(round_no)

    def emit_message(self, round_no: int, src: int, dst: int, tag: str, words: int) -> None:
        if not self._message_listeners:
            return
        event = MessageEvent(round_no=round_no, src=src, dst=dst, tag=tag, words=words)
        for ob in self._observers:
            ob.on_message(event)

    def emit_fault(self, event: FaultEvent) -> None:
        """Fan a fault/recovery event out to the observers.

        Events arrive pre-stamped or are stamped here with the span
        clock (``time.perf_counter``) so exporters can place them on
        the same timeline as spans and rounds.
        """
        if not self._observers:
            return
        if event.time == 0.0:
            event = dataclasses.replace(event, time=time.perf_counter())
        for ob in self._observers:
            ob.on_fault(event)

    def emit_exec_span(self, record: ExecSpanRecord) -> None:
        """Fan a merged executor chunk span out to the observers."""
        for ob in self._observers:
            ob.on_exec_span(record)

    def emit_round_end(self, round_stats) -> None:
        if not self._observers:
            self._round_t0 = None
            return
        now = time.perf_counter()
        record = RoundRecord(
            round_no=round_stats.round_no,
            start_time=self._round_t0 if self._round_t0 is not None else now,
            end_time=now,
            words=round_stats.total,
            messages=round_stats.messages,
            max_load=round_stats.max_load,
        )
        self._round_t0 = None
        for ob in self._observers:
            ob.on_round_end(record)
