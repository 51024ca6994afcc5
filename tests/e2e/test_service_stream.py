"""Incremental datasets end to end over the split-role deployment.

``repro stream`` drives a 3-append chain with warm re-solves over HTTP
against a frontend and a worker sharing a SQLite state directory.  The
worker is SIGKILLed while it holds a job's lease, and a fresh worker
finishes the chain: the drift report must be byte-identical to an
undisturbed in-process run of the same seeded stream.  The toy-scale
``bench_stream.py`` run asserts warm < cold oracle evaluations at every
chained version.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.service import ServiceClient

STREAM = ("--n", "600", "--appends", "3", "--k", "8", "--epsilon", "0.2",
          "--seed", "0", "--dataset-seed", "0", "--machines", "4")
BENCH_STREAM = Path(__file__).parents[2] / "benchmarks" / "bench_stream.py"


def test_stream_chain_survives_a_worker_kill_byte_identically(
    launch_service, launch_worker, kill_lease_holder, repro_env, tmp_path
):
    local = tmp_path / "stream-local.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "stream", *STREAM, "--backend", "serial",
         "--json-out", str(local)],
        env=repro_env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )

    state = tmp_path / "state"
    shared = ("--state-dir", str(state), "--lease-timeout", "2", "--max-retries", "2")
    url, _ = launch_service("--role", "frontend", *shared)
    worker = ("--workers", "1", "--backend", "serial", *shared)
    proc, worker_id = launch_worker(*worker)
    client = ServiceClient(url, timeout=10.0)
    assert client.healthz()["role"] == "frontend"

    remote = tmp_path / "stream-http.json"
    with open(tmp_path / "stream-cli.log", "w") as log:
        stream = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream", "--url", url, *STREAM,
             "--json-out", str(remote)],
            env=repro_env, stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        killed = kill_lease_holder(proc, worker_id, state)
        launch_worker(*worker)  # a fresh worker finishes the chain
        assert stream.wait(timeout=300.0) == 0, (tmp_path / "stream-cli.log").read_text()
    finally:
        stream.kill()
        stream.wait()

    orphan = client.job(killed)
    assert orphan["state"] == "done", orphan
    notes = [a["error"] for a in orphan.get("attempts", [])]
    assert f"orphaned: worker lease expired ({worker_id})" in notes, orphan

    assert remote.read_bytes() == local.read_bytes()
    versions = json.loads(remote.read_text())["versions"]
    assert len(versions) == 4, versions
    assert versions[0]["drift"] is None, versions[0]
    for entry in versions[1:]:
        assert entry["warm"], entry
        assert entry["drift"]["appended"] == 150, entry["drift"]

    subprocess.run(
        [sys.executable, str(BENCH_STREAM), "--n", "800",
         "--out", str(tmp_path / "stream-bench.json")],
        env=repro_env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
