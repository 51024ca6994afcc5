"""Low-overhead, thread-safe metrics: counters, gauges, histograms.

The registry is the operational companion to the tracing layer: where
:class:`~repro.obs.record.Recorder` keeps *every* event of one run,
the registry keeps *aggregates* across runs — cheap enough to stay on
permanently, deterministic enough to diff between seeded executions.

Three design rules keep it that way:

* **fixed bucket bounds** — histograms never rebucket, so two runs of
  the same workload produce byte-identical layouts (only the duration
  observations differ; every *counter* is bit-reproducible for a fixed
  seed);
* **one lock per registry**, taken only on child creation and on
  snapshot/render; the hot path (``inc``/``observe`` on an
  already-created child) is a handful of attribute ops guarded by the
  child's own lock;
* **no background threads, no clocks** — the registry never samples by
  itself; values arrive from the :class:`MetricsObserver` hooks and
  from explicit sync points in the service layer.

Exposure paths (see ``docs/metrics.md`` for the full metric catalogue):

* ``GET /metrics`` on the job service — Prometheus text exposition
  (:meth:`MetricsRegistry.render_prometheus`), plus a ``metrics`` block
  in ``GET /stats``;
* ``repro <cmd> --metrics-out run.metrics.json`` — the JSON snapshot
  of the process-global registry, next to the trace output;
* :func:`repro.api.metrics_snapshot` / :func:`repro.api.metrics_reset`
  on the facade.

The :class:`MetricsObserver` feeds a registry natively from the
:class:`~repro.obs.observer.ObserverHub` events — rounds, words,
phase spans, oracle-call deltas, fault injections and recoveries —
without ever requesting per-message events (``wants_messages`` is
False, so the hub's zero-copy message fast path stays active).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.events import FaultEvent, RoundRecord, SpanRecord
from repro.obs.observer import Observer

#: default histogram bounds for durations, seconds.  Fixed — never
#: derived from data — so output layout is deterministic.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _format_value(value: float) -> str:
    """Render a sample the Prometheus way: integers without a dot."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_string(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    """``key="value",...`` — the text between ``{`` and ``}``."""
    return ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )


class _Child:
    """One labeled series of a family; the object hot paths touch."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally-maintained monotonic tally (the service
        layer keeps its authoritative counts under its own lock and
        syncs them here at scrape time, so ``/stats`` and ``/metrics``
        can never disagree).  Never goes down."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class HistogramChild(_Child):
    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        super().__init__()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            for i, bound in enumerate(self.bounds):
                if v <= bound:
                    self._counts[i] += 1
                    break
            else:
                self._counts[-1] += 1
            self._sum += v
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            out: List[Tuple[str, int]] = []
            running = 0
            for bound, n in zip(self.bounds, self._counts):
                running += n
                out.append((f"{bound:g}", running))
            out.append(("+Inf", running + self._counts[-1]))
            return out

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


_CHILD_TYPES = {
    "counter": CounterChild,
    "gauge": GaugeChild,
    "histogram": HistogramChild,
}


class MetricFamily:
    """One named metric and its labeled children.

    A family with no label names has exactly one child and proxies the
    child's methods (``family.inc()``, ``family.observe()``, …), so the
    common unlabeled case needs no ``labels()`` call.
    """

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Tuple[str, ...] = (),
                 buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not self.label_names:
            self._children[()] = self._make_child()

    def _make_child(self) -> _Child:
        if self.kind == "histogram":
            return HistogramChild(self.buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, *values: str, **kwargs: str):
        """The child for one label-value combination (created on first
        use).  Accepts positional values in ``label_names`` order or
        the same values as keywords."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by "
                                 "keyword, not both")
            try:
                values = tuple(str(kwargs.pop(n)) for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name} is missing label {exc.args[0]!r}"
                ) from None
            if kwargs:
                raise ValueError(
                    f"{self.name} got unexpected label(s) {sorted(kwargs)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._children[values] = self._make_child()
            return child

    # unlabeled-family conveniences -------------------------------------------

    def _solo(self) -> _Child:
        if self.label_names:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; "
                "use .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._solo().set(value)  # type: ignore[attr-defined]

    def set_total(self, value: float) -> None:
        self._solo().set_total(value)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._solo().observe(value)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        return self._solo().value  # type: ignore[attr-defined]

    # introspection ------------------------------------------------------------

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """Sorted ``(label_values, child)`` pairs — deterministic order."""
        with self._lock:
            return sorted(self._children.items())

    def _reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child._reset()


class MetricsRegistry:
    """A named set of metric families with deterministic output.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same family (and raises if the
    second ask disagrees on kind or labels — a misconfiguration, not a
    race to paper over).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str,
                label_names: Iterable[str],
                buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> MetricFamily:
        label_names = tuple(label_names)
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = MetricFamily(name, kind, help=help,
                                   label_names=label_names, buckets=buckets)
                self._families[name] = fam
                return fam
        if fam.kind != kind or fam.label_names != label_names:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind} with "
                f"labels {fam.label_names}; asked for {kind} with "
                f"labels {label_names}"
            )
        return fam

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels: Iterable[str] = (),
                  buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=tuple(buckets))

    def families(self) -> List[MetricFamily]:
        """Sorted by name — snapshot and render order."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def reset(self) -> None:
        """Zero every value; registrations (names, labels, buckets) stay."""
        for fam in self.families():
            fam._reset()

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump: ``{"counters": ..., "gauges": ..., "histograms": ...}``.

        Counter and gauge sections map metric name → {label-string →
        value}; the label string is ``""`` for unlabeled metrics and
        ``key="value",...`` otherwise (the exact text a Prometheus
        series would carry between braces).  For a fixed seed the
        ``counters`` section is bit-reproducible across runs; histogram
        *duration* observations are wall-clock and are not.
        """
        counters: Dict[str, Dict[str, float]] = {}
        gauges: Dict[str, Dict[str, float]] = {}
        histograms: Dict[str, Dict[str, dict]] = {}
        for fam in self.families():
            for values, child in fam.children():
                key = _label_string(fam.label_names, values)
                if fam.kind == "counter":
                    counters.setdefault(fam.name, {})[key] = child.value
                elif fam.kind == "gauge":
                    gauges.setdefault(fam.name, {})[key] = child.value
                else:
                    histograms.setdefault(fam.name, {})[key] = {
                        "buckets": {le: n for le, n in child.cumulative()},
                        "sum": child.sum,
                        "count": child.count,
                    }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self) -> str:
        """The text exposition format, version 0.0.4."""
        lines: List[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for values, child in fam.children():
                label_str = _label_string(fam.label_names, values)
                if fam.kind == "histogram":
                    for le, cum in child.cumulative():
                        inner = (label_str + "," if label_str else "") + f'le="{le}"'
                        lines.append(f"{fam.name}_bucket{{{inner}}} {cum}")
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{fam.name}_sum{suffix} {_format_value(child.sum)}")
                    lines.append(f"{fam.name}_count{suffix} {child.count}")
                else:
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{fam.name}{suffix} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def write_json(self, path) -> str:
        """Dump :meth:`snapshot` to ``path``; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return str(path)


#: content type for the Prometheus exposition format
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_default_registry = MetricsRegistry()
_current: ContextVar[MetricsRegistry] = ContextVar("repro_registry", default=_default_registry)


def default_registry() -> MetricsRegistry:
    """The process-global registry the facade and CLI feed."""
    return _default_registry


def current_registry() -> MetricsRegistry:
    """The ambient registry: the one :func:`use_registry` installed,
    else :func:`default_registry`."""
    return _current.get()


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the ``with``
    body (thread- and task-local via :mod:`contextvars`, like
    :func:`~repro.obs.tracing.use_trace`): facade solves in it feed
    ``registry`` and not the process-global one."""
    token = _current.set(registry)
    try:
        yield registry
    finally:
        _current.reset(token)


class MetricsObserver(Observer):
    """Feeds a :class:`MetricsRegistry` from the hub's native events.

    Attach one per cluster (``cluster.obs.add(MetricsObserver())``) —
    or let the facade do it, which it does for every ``solve_*`` call.
    Without a ``registry`` it feeds :func:`current_registry`.
    Never asks for per-message events, so the hub's zero-listener
    message fast path stays active and the per-message overhead of
    metrics collection is exactly zero.
    """

    wants_messages = False

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else current_registry()
        self.registry = reg
        self._rounds = reg.counter(
            "repro_mpc_rounds_total", "MPC rounds executed")
        self._words = reg.counter(
            "repro_mpc_words_total", "words delivered across all rounds")
        self._messages = reg.counter(
            "repro_mpc_messages_total", "messages delivered across all rounds")
        self._round_duration = reg.histogram(
            "repro_round_duration_seconds", "wall-clock per MPC round barrier")
        self._phase_duration = reg.histogram(
            "repro_phase_duration_seconds",
            "inclusive wall-clock per algorithm phase span", labels=("phase",))
        self._phase_rounds = reg.counter(
            "repro_phase_rounds_total",
            "inclusive MPC rounds per algorithm phase span", labels=("phase",))
        self._oracle_calls = reg.counter(
            "repro_oracle_calls_total",
            "distance-oracle kernel calls (depth-0 span deltas)")
        self._oracle_evals = reg.counter(
            "repro_oracle_evaluations_total",
            "scalar distance evaluations (depth-0 span deltas)")
        self._injected = reg.counter(
            "repro_faults_injected_total", "injected faults",
            labels=("layer", "kind"))
        self._recovered = reg.counter(
            "repro_faults_recovered_total", "recovery actions taken",
            labels=("layer", "kind"))
        # remote-backend pool health: the same events that feed the
        # generic fault families, broken out under stable names so the
        # service's /metrics can be checked against recovery_stats()
        self._remote_chunks = reg.counter(
            "repro_remote_chunks_total",
            "chunks completed by remote worker agents")
        self._remote_redispatch = reg.counter(
            "repro_remote_redispatches_total",
            "remote chunks re-dispatched after a lost or failed attempt")
        self._remote_lost = reg.counter(
            "repro_remote_workers_lost_total",
            "remote worker agents declared dead")
        self._remote_duplicates = reg.counter(
            "repro_remote_duplicate_results_total",
            "late duplicate chunk results discarded (first-writer-wins)")
        self._remote_reships = reg.counter(
            "repro_remote_dataset_reships_total",
            "dataset re-ships to restarted workers (cache misses)")
        self._remote_fallbacks = reg.counter(
            "repro_remote_fallbacks_total",
            "whole-pool degradations to a local backend", labels=("to",))

    def on_round_end(self, record: RoundRecord) -> None:
        self._rounds.inc()
        self._words.inc(record.words)
        self._messages.inc(record.messages)
        self._round_duration.observe(record.duration_s)

    def on_span_end(self, span: SpanRecord) -> None:
        self._phase_duration.labels(span.name).observe(span.duration_s)
        if span.rounds:
            self._phase_rounds.labels(span.name).inc(span.rounds)
        if span.depth == 0:
            # depth-0 spans are disjoint, so their deltas sum without
            # double counting (same invariant RunLog.root_totals uses)
            if span.oracle_calls:
                self._oracle_calls.inc(span.oracle_calls)
            if span.oracle_evaluations:
                self._oracle_evals.inc(span.oracle_evaluations)

    def on_exec_span(self, span) -> None:
        if span.name == "remote/chunk":
            self._remote_chunks.inc()

    def on_fault(self, event: FaultEvent) -> None:
        fam = self._injected if event.injected else self._recovered
        fam.labels(event.layer, event.kind).inc()
        if event.layer != "remote" or event.injected:
            return
        if event.kind == "chunk_redispatch":
            self._remote_redispatch.inc()
        elif event.kind == "worker_lost":
            self._remote_lost.inc()
        elif event.kind == "duplicate_result":
            self._remote_duplicates.inc()
        elif event.kind == "dataset_reship":
            self._remote_reships.inc()
        elif event.kind == "local_fallback":
            self._remote_fallbacks.labels("process").inc()
        elif event.kind == "serial_fallback":
            self._remote_fallbacks.labels("serial").inc()


__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "MetricFamily",
    "MetricsObserver",
    "MetricsRegistry",
    "default_registry",
]
