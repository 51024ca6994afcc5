"""The job service end to end under a fault plan on every layer.

A ``repro serve --backend process`` process with two pool workers runs
under a seeded plan that 429-storms the first 8 requests, drops 10 % of
connections, kills forked workers and faults machine tasks.  A k-center
job submitted through that storm must still finish bit-identical to a
fault-free :func:`repro.api.solve_kcenter` call, and the recovery
stats, ``/v1/healthz``, the Prometheus surface, the merged job trace
and the server's JSON log must all tell the same story.
"""

from __future__ import annotations

import numpy as np

from repro.api import solve_kcenter
from repro.service import ServiceClient

FAULTS = "seed=2026,error_burst=8,service_drop=0.1,worker_kill=0.2,machine_fault=0.08"


def test_job_survives_a_fault_storm_bit_identically(launch_service):
    url, log_path = launch_service(
        "--workers", "1", "--backend", "process", "--max-retries", "2",
        "--log-format", "json", "--faults", FAULTS,
        env={"REPRO_WORKERS": "2"},  # worker kills fire even on one core
    )
    client = ServiceClient(url, timeout=10.0, retries=10, backoff_s=0.05)
    client.healthz()  # exempt from the plan

    points = np.random.default_rng(7).normal(scale=3.0, size=(400, 2))
    ds = client.register_points(points)
    job = client.submit(algorithm="kcenter", dataset=ds["id"],
                        k=8, eps=0.2, seed=11, machines=4)
    done = client.wait(job["id"], timeout=300.0)
    assert done["state"] == "done", done

    # bit-identical to a fault-free serial run, despite the chaos
    direct = solve_kcenter(points, k=8, eps=0.2, seed=11, machines=4)
    record = done["result"]["record"]
    assert record["radius"] == direct.radius, (record["radius"], direct.radius)
    assert record["centers"] == [int(c) for c in direct.centers]
    assert record["rounds"] == direct.rounds

    # the storm really happened and the stack absorbed it
    assert client.transport_retries >= 8, client.transport_retries
    stats = client.stats()
    assert stats["service_faults"]["injected_total"] >= 8, stats["service_faults"]
    recovery = done["result"].get("recovery", {})
    summary = recovery.get("fault_summary", {})
    assert summary.get("injected", 0) >= 1, recovery
    assert summary.get("recovered", 0) >= 1, recovery
    assert summary["by_kind"].get("machine/machine_fault", 0) >= 1, summary
    executor = recovery.get("executor", {})
    assert executor.get("faults_injected", 0) >= 1, recovery
    assert executor.get("serial_fallbacks") == 0, recovery
    health = client.healthz()
    assert health["status"] == "degraded", health

    # the Prometheus surface saw the same storm
    metrics = client.metrics()
    assert "# TYPE repro_faults_injected_total counter" in metrics
    assert "repro_service_faults_injected_total" in metrics
    assert "repro_faults_recovered_total" in metrics

    # the merged per-job trace tells the same story as the recovery
    # stats: one doc, one trace id, fault events intact
    trace = client.trace(job["id"])
    events = trace["traceEvents"]
    assert events, "empty merged trace for the chaos job"
    trace_id = trace.get("otherData", {}).get("trace_id")
    assert trace_id == done["trace_id"], (trace_id, done["trace_id"])
    fault_events = [e for e in events if e.get("cat") == "fault"]
    injected = sum(1 for e in fault_events if e["args"]["injected"])
    recovered = sum(1 for e in fault_events if not e["args"]["injected"])
    assert injected == summary["injected"], (injected, summary)
    assert recovered == summary["recovered"], (recovered, summary)
    exec_spans = [e for e in events if e.get("cat") == "exec" and e.get("ph") == "X"]
    assert exec_spans, "no executor child spans in the merged trace"

    # every structured server log line for this job carries the id
    assert trace_id in log_path.read_text(), f"trace id {trace_id} absent from server log"
