"""Analysis sweeps end to end over the split-role deployment.

A frontend accepts ``POST /v1/analyses`` and one worker drains the
cell jobs.  The worker is SIGKILLed while it holds a cell's lease, and
a fresh worker finishes the grid and finalizes the analysis.  The
report must be byte-identical to an undisturbed in-process run of the
same spec, and resubmitting the spec must be served entirely from the
result cache (one miss per distinct cell, ever).
"""

from __future__ import annotations

import json

import numpy as np

from repro.service import DatasetRegistry, JobManager, ServiceClient, open_stores
from repro.sweeps import SweepManager, SweepSpec


def _local_report(points, spec: dict, dataset_id: str) -> dict:
    """The same sweep run undisturbed in process."""
    stores = open_stores()
    datasets = DatasetRegistry(stores.datasets)
    assert datasets.register_points(points).id == dataset_id
    manager = JobManager(datasets, stores=stores, workers=2, backend="serial").start()
    sweeps = SweepManager(manager)
    try:
        local = sweeps.wait(sweeps.submit(SweepSpec(**spec)).id, timeout=300.0)
        assert local.state == "done", local.state
        return sweeps.report(local.id)
    finally:
        sweeps.stop()
        manager.stop()


def test_sweep_survives_a_worker_kill_byte_identically(
    launch_service, launch_worker, kill_lease_holder, tmp_path
):
    state = tmp_path / "state"
    shared = ("--state-dir", str(state), "--lease-timeout", "2", "--max-retries", "2")
    url, _ = launch_service("--role", "frontend", *shared)
    worker = ("--workers", "1", "--backend", "serial", *shared)
    proc, worker_id = launch_worker(*worker)
    client = ServiceClient(url, timeout=10.0)
    assert client.healthz()["role"] == "frontend"

    points = np.random.default_rng(7).normal(scale=3.0, size=(800, 2))
    ds = client.register_points(points)
    spec = dict(datasets=[ds["id"]], solvers=["kcenter", "gonzalez", "malkomes"],
                ks=[4, 8], machines=4)
    record = client.submit_analysis(**spec)
    assert record["state"] == "running", record
    assert record["cells"] == 6, record

    killed = kill_lease_holder(proc, worker_id, state)
    launch_worker(*worker)  # a fresh worker picks up the remains

    done = client.wait_analysis(record["id"], timeout=300.0)
    assert done["state"] == "done", done
    report = client.analysis_report(record["id"])
    orphan = client.job(killed)
    assert orphan["state"] == "done", orphan
    notes = [a["error"] for a in orphan.get("attempts", [])]
    assert f"orphaned: worker lease expired ({worker_id})" in notes, orphan

    # dataset ids are content fingerprints, so the two runs agree on them
    local_report = _local_report(points, spec, ds["id"])
    assert json.dumps(report, sort_keys=True) == json.dumps(local_report, sort_keys=True)

    # resubmitting the same spec runs nothing: every cell is a cache
    # hit, the analysis finalizes at once, and the report is the same
    before = client.stats()["cache"]
    again = client.submit_analysis(**spec)
    final = client.wait_analysis(again["id"], timeout=60.0)
    assert final["state"] == "done", final
    after = client.stats()["cache"]
    assert after["misses_total"] == before["misses_total"], (before, after)
    assert after["hits_total"] >= before["hits_total"] + 6, (before, after)
    report2 = client.analysis_report(again["id"])
    assert json.dumps(report2, sort_keys=True) == json.dumps(report, sort_keys=True)
