"""Tests for the trace exporters and the CLI wiring around them."""

import json

import pytest

from repro.cli import main
from repro.core.kcenter import mpc_kcenter
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster
from repro.obs import (
    Recorder,
    export_run,
    phase_report,
    read_jsonl,
    to_chrome_trace,
    trace_payload,
)
from repro.obs.export import ROUND_TID, SPAN_TID


@pytest.fixture
def metric(rng):
    return EuclideanMetric(rng.normal(size=(120, 2)))


@pytest.fixture
def recorded(metric):
    cluster = MPCCluster(metric, 4, seed=1)
    rec = Recorder.attach(cluster)
    res = mpc_kcenter(cluster, k=5, epsilon=0.5)
    return cluster, rec.log, res


class TestJsonl:
    def test_round_trip_field_equality(self, recorded, tmp_path):
        _, log, _ = recorded
        path = export_run(log, tmp_path / "run.jsonl", "jsonl")
        back = read_jsonl(path)
        assert back.meta == log.meta
        assert len(back.spans) == len(log.spans)
        assert len(back.rounds) == len(log.rounds)
        assert len(back.messages) == len(log.messages)
        for a, b in zip(log.spans, back.spans):
            assert a.to_dict() == b.to_dict()
        for a, b in zip(log.rounds, back.rounds):
            assert a.to_dict() == b.to_dict()
        for a, b in zip(log.messages, back.messages):
            assert a.to_dict() == b.to_dict()

    def test_round_trip_preserves_aggregates(self, recorded, tmp_path):
        _, log, _ = recorded
        back = read_jsonl(export_run(log, tmp_path / "run.jsonl", "jsonl"))
        assert back.phase_summary() == log.phase_summary()
        assert back.root_totals() == log.root_totals()
        assert back.round_coverage() == log.round_coverage()

    def test_lines_are_type_tagged(self, recorded, tmp_path):
        _, log, _ = recorded
        path = export_run(log, tmp_path / "run.jsonl", "jsonl")
        types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert types[0] == "meta"
        assert set(types) == {"meta", "span", "round", "message"}


class TestChromeTrace:
    def test_schema(self, recorded):
        _, log, _ = recorded
        doc = to_chrome_trace(log)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["machines"] == 4
        for ev in doc["traceEvents"]:
            assert ev["ph"] in {"M", "X", "C"}
            if ev["ph"] == "X":
                assert ev["ts"] >= 0
                assert ev["dur"] > 0
                assert ev["tid"] in {SPAN_TID, ROUND_TID}

    def test_span_and_round_tracks(self, recorded):
        _, log, _ = recorded
        doc = to_chrome_trace(log)
        spans = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        rounds = [e for e in doc["traceEvents"] if e.get("cat") == "round" and e["ph"] == "X"]
        assert len(spans) == len(log.spans)
        assert len(rounds) == len(log.rounds)
        names = {e["name"] for e in spans}
        assert "kcenter/run" in names
        run = next(e for e in spans if e["name"] == "kcenter/run")
        assert run["args"]["rounds"] == log.root_totals()["rounds"]
        assert run["args"]["words"] == log.root_totals()["words"]

    def test_write_is_valid_json(self, recorded, tmp_path):
        _, log, _ = recorded
        path = export_run(log, tmp_path / "trace.json", "chrome")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_export_run_dispatch(self, recorded, tmp_path):
        _, log, _ = recorded
        p1 = export_run(log, tmp_path / "a.json", fmt="chrome")
        assert "traceEvents" in json.loads(p1.read_text())
        p2 = export_run(log, tmp_path / "b.jsonl", fmt="jsonl")
        assert read_jsonl(p2).spans
        with pytest.raises(ValueError, match="unknown trace format"):
            export_run(log, tmp_path / "c.bin", fmt="protobuf")

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_export_run_writes_the_payload_body(self, recorded, tmp_path, fmt):
        # one serializer per format: the file is exactly what the job
        # service serves for the same log
        _, log, _ = recorded
        path = export_run(log, tmp_path / f"run.{fmt}", fmt)
        assert path.read_text() == trace_payload(log, fmt)[1]


class TestPhaseReport:
    def test_report_contains_phases_and_coverage(self, recorded):
        _, log, _ = recorded
        text = phase_report(log)
        assert "kcenter/run" in text
        assert "span coverage:" in text
        assert f"{len(log.rounds)} observed rounds" in text


class TestCliTracing:
    def test_cli_chrome_trace_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main([
            "kcenter", "--n", "200", "--k", "5", "--machines", "4",
            "--seed", "3", "--trace-out", str(out), "--report", "phases",
        ])
        captured = capsys.readouterr().out
        assert "per-phase breakdown" in captured
        assert "kcenter/run" in captured
        doc = json.loads(out.read_text())
        span_events = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        assert span_events
        # acceptance: spans cover >= 95% of observed rounds
        cov = float(captured.split("span coverage:")[1].split("%")[0])
        assert cov >= 95.0

    def test_cli_jsonl_trace(self, tmp_path):
        out = tmp_path / "run.jsonl"
        main([
            "kcenter", "--n", "200", "--k", "5", "--machines", "4",
            "--seed", "3", "--trace-out", str(out), "--trace-format", "jsonl",
        ])
        log = read_jsonl(out)
        assert log.spans and log.rounds
        assert log.round_coverage() >= 0.95

    def test_cli_json_result_gains_phase_breakdown(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        result = tmp_path / "result.json"
        main([
            "kcenter", "--n", "200", "--k", "5", "--machines", "4",
            "--seed", "3", "--trace-out", str(trace), "--trace-format", "jsonl",
            "--json-out", str(result),
        ])
        payload = json.loads(result.read_text())
        phases = payload["meta"]["phases"]
        assert any(row["phase"] == "kcenter/run" for row in phases)
