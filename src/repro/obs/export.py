"""Trace exporters: JSONL, Chrome trace-event JSON, ASCII phase report.

Three sinks for a recorded :class:`~repro.obs.record.RunLog`:

* :func:`trace_payload` — the one serializer per format, returning
  ``(content_type, body)``: ``jsonl`` is one JSON object per line
  (``meta``, then every span/round/message/fault/exec span tagged with
  a ``type`` field), round-trippable through :func:`read_jsonl`;
  ``chrome`` is the Chrome trace-event format built by
  :func:`to_chrome_trace` (JSON Object Format with ``traceEvents``),
  loadable in ``chrome://tracing`` and https://ui.perfetto.dev: spans
  render as nested "X" slices on one track, rounds as slices on a
  second track, and per-round word counts as a counter series;
  :func:`export_run` writes that body to a file;
* :func:`phase_report` — the per-phase ASCII table the CLI prints for
  ``--report phases``.

Timestamps in the Chrome export are microseconds relative to the first
recorded event, as the format expects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.events import (
    ExecSpanRecord,
    FaultEvent,
    MessageEvent,
    RoundRecord,
    SpanRecord,
)
from repro.obs.record import RunLog

PathLike = Union[str, Path]


# -- JSONL -----------------------------------------------------------------------

#: JSONL line type -> ``(RunLog list, record type)``, in write order
_JSONL_RECORDS = {
    "span": ("spans", SpanRecord),
    "round": ("rounds", RoundRecord),
    "message": ("messages", MessageEvent),
    "fault": ("faults", FaultEvent),
    "exec_span": ("exec_spans", ExecSpanRecord),
}


def read_jsonl(path: PathLike) -> RunLog:
    """Parse a ``jsonl`` trace (see :func:`trace_payload`) back into a
    RunLog; ``annotation`` lines are skipped."""
    log = RunLog()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.pop("type", None)
        if kind == "meta":
            log.meta = obj
        elif kind in _JSONL_RECORDS:
            attr, cls = _JSONL_RECORDS[kind]
            getattr(log, attr).append(cls.from_dict(obj))
    return log


# -- Chrome trace-event format ----------------------------------------------------

#: synthetic thread ids of the tracks in the Chrome export
SPAN_TID = 0
ROUND_TID = 1
FAULT_TID = 2


def to_chrome_trace(log: RunLog) -> Dict:
    """Build a Chrome trace-event document (JSON Object Format).

    Driver-side tracks (phases, rounds, faults) render under pid 0;
    executor chunk spans merged from forked workers render under
    synthetic pid ``1 + worker`` so Perfetto shows one process lane per
    worker slot (the real OS pid — which is not deterministic — stays
    in the event args).
    """
    starts = [s.start_time for s in log.spans] + [r.start_time for r in log.rounds]
    starts += [f.time for f in log.faults if f.time > 0.0]
    starts += [e.start_time for e in log.exec_spans]
    t0 = min(starts) if starts else 0.0

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 3)

    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "repro MPC simulator"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": SPAN_TID,
         "args": {"name": "algorithm phases"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": ROUND_TID,
         "args": {"name": "MPC rounds"}},
    ]
    if log.faults:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": FAULT_TID,
             "args": {"name": "faults & recovery"}}
        )
        for f in log.faults:
            events.append(
                {
                    "name": f"{'⚡' if f.injected else '✓'} {f.kind}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": FAULT_TID,
                    "ts": us(f.time) if f.time > 0.0 else 0.0,
                    "args": f.to_dict(),
                }
            )
    for s in sorted(log.spans, key=lambda s: (s.start_time, s.uid)):
        args = {
            "rounds": s.rounds,
            "words": s.words,
            "messages": s.messages,
            "oracle_calls": s.oracle_calls,
            "oracle_evaluations": s.oracle_evaluations,
            "start_round": s.start_round,
            "end_round": s.end_round,
            **s.attrs,
        }
        if s.trace_id is not None:
            args["trace_id"] = s.trace_id
            args["span_id"] = s.span_id
            args["parent_span_id"] = s.parent_span_id
        events.append(
            {
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "pid": 0,
                "tid": SPAN_TID,
                "ts": us(s.start_time),
                "dur": max(round(s.duration_s * 1e6, 3), 0.001),
                "args": args,
            }
        )
    for pid in sorted({1 + e.worker for e in log.exec_spans}):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"executor worker {pid - 1}"}}
        )
    for e in sorted(log.exec_spans,
                    key=lambda e: (e.batch, e.attempt, e.worker)):
        events.append(
            {
                "name": e.name,
                "cat": "exec",
                "ph": "X",
                "pid": 1 + e.worker,
                "tid": 0,
                "ts": us(e.start_time),
                "dur": max(round(e.duration_s * 1e6, 3), 0.001),
                "args": e.to_dict(),
            }
        )
    for r in log.rounds:
        events.append(
            {
                "name": f"round {r.round_no}",
                "cat": "round",
                "ph": "X",
                "pid": 0,
                "tid": ROUND_TID,
                "ts": us(r.start_time),
                "dur": max(round(r.duration_s * 1e6, 3), 0.001),
                "args": {
                    "words": r.words,
                    "messages": r.messages,
                    "max_load": r.max_load,
                },
            }
        )
        events.append(
            {
                "name": "delivered words",
                "cat": "round",
                "ph": "C",
                "pid": 0,
                "ts": us(r.end_time),
                "args": {"words": r.words},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(log.meta),
    }


# -- ASCII report -----------------------------------------------------------------

def phase_report(log: RunLog, title: str = "per-phase breakdown") -> str:
    """Render the per-phase totals as an ASCII table.

    Phase names are indented by their minimum nesting depth so the tree
    structure survives in plain text.
    """
    from repro.analysis.reports import format_table  # lazy: avoids an import cycle

    rows = []
    for row in log.phase_summary():
        rows.append(
            {
                "phase": "  " * row["depth"] + row["phase"],
                "count": row["count"],
                "rounds": row["rounds"],
                "words": row["words"],
                "messages": row["messages"],
                "oracle calls": row["oracle_calls"],
                "oracle evals": row["oracle_evaluations"],
                "wall ms": row["wall_s"] * 1e3,
            }
        )
    table = format_table(rows, title=title)
    cov = log.round_coverage()
    return f"{table}\nspan coverage: {cov:.1%} of {len(log.rounds)} observed rounds"


def export_run(log: RunLog, path: PathLike, fmt: str = "chrome") -> Path:
    """Write the :func:`trace_payload` body for ``fmt`` (``'chrome'`` or
    ``'jsonl'``) to ``path``; returns the path."""
    body = trace_payload(log, fmt)[1]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body)
    return path


def trace_payload(log: RunLog, fmt: str = "chrome",
                  annotations: Optional[List[dict]] = None) -> tuple[str, str]:
    """Serialize a run log: ``(content_type, body)``.

    The one serializer of each format: :func:`export_run` writes its
    body to disk, and the job service serves it as
    ``GET /jobs/<id>/trace``.  The ``jsonl`` body round-trips through
    :func:`read_jsonl`.

    ``annotations`` lets the caller attach service-level trace events
    the run log itself cannot know about — e.g. "this response was a
    cache hit" — as ``{"name": ..., "args": {...}}`` dicts: instant
    events on the fault track in the Chrome form, ``annotation`` lines
    in the JSONL form.
    """
    if fmt == "chrome":
        doc = to_chrome_trace(log)
        for ann in annotations or []:
            doc["traceEvents"].append(
                {
                    "name": ann["name"],
                    "cat": "annotation",
                    "ph": "i",
                    "s": "g",
                    "pid": 0,
                    "tid": FAULT_TID,
                    "ts": 0.0,
                    "args": dict(ann.get("args", {})),
                }
            )
        return "application/json", json.dumps(doc) + "\n"
    if fmt == "jsonl":
        lines = [json.dumps({"type": "meta", **log.meta})]
        for kind, (attr, _) in _JSONL_RECORDS.items():
            lines += [json.dumps({"type": kind, **rec.to_dict()})
                      for rec in getattr(log, attr)]
        lines += [json.dumps({"type": "annotation", **ann})
                  for ann in annotations or []]
        return "application/x-ndjson", "\n".join(lines) + "\n"
    raise ValueError(f"unknown trace format {fmt!r} (expected 'chrome' or 'jsonl')")


#: event/args keys that carry wall-clock or OS-assigned values — the
#: non-deterministic residue :func:`canonical_chrome_trace` strips
_VOLATILE_KEYS = frozenset(
    {"ts", "dur"}
)
_VOLATILE_ARG_KEYS = frozenset(
    {"time", "os_pid", "start_time", "end_time", "duration_s", "wall_s"}
)


def canonical_chrome_trace(doc: Dict) -> Dict:
    """A Chrome trace document minus its non-deterministic residue.

    Timestamps, durations, and OS pids vary run to run even for a fully
    seeded execution; everything else — event names, categories, track
    layout, counters, trace/span ids — is deterministic.  Two seeded
    runs of the same spec must produce *identical* canonical documents
    (the test suite asserts it), which is what makes a recorded trace a
    replayable artifact rather than a one-off.
    """
    events = []
    for ev in doc.get("traceEvents", []):
        ev = {k: v for k, v in ev.items() if k not in _VOLATILE_KEYS}
        args = ev.get("args")
        if isinstance(args, dict):
            ev["args"] = {
                k: v for k, v in args.items() if k not in _VOLATILE_ARG_KEYS
            }
        events.append(ev)
    other = {
        k: v
        for k, v in doc.get("otherData", {}).items()
        if k not in _VOLATILE_ARG_KEYS
    }
    return {"traceEvents": events, "otherData": other}
