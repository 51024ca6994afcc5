"""First-class observability for the MPC simulator.

The package has three layers, mirroring how a production tracing stack
is built:

* **events** (:mod:`repro.obs.events`) — the structured records the
  simulator emits: one :class:`MessageEvent` per delivered message, one
  :class:`RoundRecord` per round barrier, one :class:`SpanRecord` per
  named algorithm phase (with round / word / wall-clock / oracle-call
  deltas captured at entry and exit);
* **hooks** (:mod:`repro.obs.observer`) — the :class:`Observer` API and
  the :class:`ObserverHub` every :class:`~repro.mpc.cluster.MPCCluster`
  owns as ``cluster.obs``.  ``step()`` invokes the hub natively (no
  monkey-patching), and algorithms open phase spans with
  ``cluster.obs.span("kcenter/probe", ...)``;
* **sinks** (:mod:`repro.obs.record`, :mod:`repro.obs.export`) — the
  :class:`Recorder` observer collects everything into a :class:`RunLog`,
  which answers per-message queries (words by tag or round, the
  heaviest messages) and exports to JSONL, to the Chrome trace-event
  format (``chrome://tracing`` / Perfetto), or to an ASCII per-phase
  report.

A fourth layer, **metrics** (:mod:`repro.obs.metrics`), aggregates the
same events into a low-overhead :class:`MetricsRegistry` — counters,
gauges, and fixed-bucket histograms — fed by the always-attachable
:class:`MetricsObserver` and exposed as Prometheus text by the job
service's ``GET /metrics`` (see ``docs/metrics.md``).

Quickstart::

    from repro.obs import Recorder, export_run, phase_report

    cluster = MPCCluster(metric, num_machines=8, seed=0)
    rec = Recorder.attach(cluster)
    mpc_kcenter(cluster, k=8)
    print(phase_report(rec.log))
    print(rec.log.words_by_tag())             # words per message tag
    export_run(rec.log, "run.json")           # open in ui.perfetto.dev

Span names follow the ``<algorithm>/<phase>`` convention of the message
tags (``kcenter/probe``, ``mis/round``, ``degree/estimate``, …); see
``docs/observability.md`` for the full catalogue.
"""

from repro.obs.events import (
    ExecSpanRecord,
    FaultEvent,
    MessageEvent,
    RoundRecord,
    SpanRecord,
)
from repro.obs.export import (
    canonical_chrome_trace,
    export_run,
    phase_report,
    read_jsonl,
    to_chrome_trace,
    trace_payload,
)
from repro.obs.logging import configure as configure_logging
from repro.obs.logging import get_logger
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsObserver,
    MetricsRegistry,
    default_registry,
)
from repro.obs.observer import Observer, ObserverHub
from repro.obs.record import Recorder, RunLog
from repro.obs.tracing import TraceContext, current_trace, use_trace

__all__ = [
    "ExecSpanRecord",
    "FaultEvent",
    "MessageEvent",
    "RoundRecord",
    "SpanRecord",
    "TraceContext",
    "current_trace",
    "use_trace",
    "configure_logging",
    "get_logger",
    "Observer",
    "ObserverHub",
    "Recorder",
    "RunLog",
    "MetricsObserver",
    "MetricsRegistry",
    "default_registry",
    "DEFAULT_TIME_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "read_jsonl",
    "canonical_chrome_trace",
    "to_chrome_trace",
    "phase_report",
    "export_run",
    "trace_payload",
]
