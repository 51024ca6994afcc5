"""The split-role deployment end to end.

One ``--role frontend`` server and two ``--role worker`` processes
share a SQLite state directory and drain a burst of jobs.  One worker
is SIGKILLed while it holds a job's lease: the lease expires, the job
is requeued as an orphan, and every result is still bit-identical to a
direct in-process solve.
"""

from __future__ import annotations

import numpy as np

from repro.api import solve_kcenter
from repro.service import ServiceClient

SEEDS = range(10)


def test_burst_survives_a_worker_kill_bit_identically(
    launch_service, launch_worker, kill_lease_holder, tmp_path
):
    state = tmp_path / "state"
    shared = ("--state-dir", str(state), "--lease-timeout", "2", "--max-retries", "2")
    url, _ = launch_service("--role", "frontend", *shared)
    workers = [
        launch_worker("--workers", "1", "--backend", "serial", *shared)
        for _ in range(2)
    ]
    client = ServiceClient(url, timeout=10.0)
    health = client.healthz()
    assert health["role"] == "frontend", health
    assert health["store"] == "sqlite", health

    points = np.random.default_rng(7).normal(scale=3.0, size=(1500, 2))
    ds = client.register_points(points)
    jobs = [
        client.submit(algorithm="kcenter", dataset=ds["id"],
                      k=8, eps=0.2, seed=seed, machines=4)
        for seed in SEEDS
    ]

    proc, worker_id = workers[0]
    killed = kill_lease_holder(proc, worker_id, state)

    done = [client.wait(j["id"], timeout=300.0) for j in jobs]
    assert [d["state"] for d in done] == ["done"] * len(jobs), done
    (orphan,) = [d for d in done if d["id"] == killed]
    notes = [a["error"] for a in orphan.get("attempts", [])]
    assert f"orphaned: worker lease expired ({worker_id})" in notes, orphan

    # every result is bit-identical to a direct in-process solve
    for seed, d in zip(SEEDS, done):
        direct = solve_kcenter(points, k=8, eps=0.2, seed=seed, machines=4)
        record = d["result"]["record"]
        assert record["radius"] == direct.radius, (seed, record["radius"])
        assert record["centers"] == [int(c) for c in direct.centers]
        assert record["rounds"] == direct.rounds

    # pagination sees the whole burst through the /v1 cursor API
    listed = client.list_jobs(state="done", page_size=4)
    assert {j["id"] for j in jobs} <= {j["id"] for j in listed}
    assert len(listed) == len({j["id"] for j in listed})
