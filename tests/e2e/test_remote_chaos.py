"""The remote backend end to end, over real agent processes.

Three ``repro worker`` processes serve a k-center solve under a seeded
fault plan that drops connections, and one of them is SIGKILLed once it
has real work in flight — no cleanup, its heartbeats just stop.  The
result must be byte-identical to a fault-free serial run, CountingOracle
ledger included, and the ``repro_remote_*`` metrics counters must
reconcile exactly with the executor's ``recovery_stats()``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import metrics_reset, metrics_snapshot, solve_kcenter
from repro.faults import FaultPlan
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import SerialExecutor
from repro.mpc.remote import RemoteExecutor

_BANNER = re.compile(r"listening on (\S+):(\d+) ")


def _start_agent(env: dict) -> tuple:
    """One ``repro worker`` on an ephemeral port, and its address read
    from the ``listening on`` banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
         "--slots", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    line: list = []
    reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout=60)
    match = _BANNER.search(line[0]) if line else None
    if match is None:
        proc.kill()
        proc.wait()
        pytest.fail(f"agent printed no banner: {line!r}")
    return proc, (match.group(1), int(match.group(2)))


@pytest.fixture
def agents():
    """Three agent processes; SIGKILLed at teardown."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1])] + sys.path))
    started: list = []
    try:
        for _ in range(3):
            started.append(_start_agent(env))
        yield started
    finally:
        for proc, _addr in started:
            proc.kill()
            proc.wait()
            proc.stdout.close()


def test_solve_survives_drops_and_a_sigkill(agents):
    points = np.random.default_rng(7).normal(scale=3.0, size=(2000, 2))

    # fault-free serial baseline, ledger and all
    serial_oracle = CountingOracle(EuclideanMetric(points))
    serial_cluster = MPCCluster(serial_oracle, 6, seed=11, executor=SerialExecutor())
    serial = solve_kcenter(k=8, eps=0.2, cluster=serial_cluster)

    # remote run: seeded connection drops from the plan, plus one agent
    # SIGKILLed as soon as the pool has real work in flight
    metrics_reset()
    plan = FaultPlan(seed=2026, remote_drop=0.08)
    executor = RemoteExecutor([addr for _proc, addr in agents])
    remote_oracle = CountingOracle(EuclideanMetric(points))
    cluster = MPCCluster(remote_oracle, 6, seed=11, executor=executor, faults=plan)
    victim, (victim_host, victim_port) = agents[0]

    def kill_mid_solve():
        while executor.dispatched_chunks < 5:
            time.sleep(0.01)
        os.kill(victim.pid, signal.SIGKILL)

    killer = threading.Thread(target=kill_mid_solve, daemon=True)
    killer.start()
    remote = solve_kcenter(k=8, eps=0.2, cluster=cluster)
    killer.join(timeout=10.0)
    assert not killer.is_alive()

    # byte-identical to the undisturbed serial run
    assert remote.radius == serial.radius
    assert sorted(int(c) for c in remote.centers) == sorted(int(c) for c in serial.centers)
    assert remote.rounds == serial.rounds
    assert remote_oracle.calls == serial_oracle.calls
    assert remote_oracle.evaluations == serial_oracle.evaluations

    # the chaos really happened and the survivors absorbed it
    rec = executor.recovery_stats()
    assert rec["workers_lost"] >= 1, rec
    assert rec["faults_injected"] >= 1, rec
    assert rec["redispatched_chunks"] >= 1, rec
    assert rec["serial_fallbacks"] == 0, rec
    status = executor.pool_status()
    dead = {label for label, w in status["workers"].items() if not w["alive"]}
    assert f"{victim_host}:{victim_port}" in dead, status

    # the metrics surface tells the same story, exactly
    counters = metrics_snapshot()["counters"]

    def total(name):
        return sum(counters.get(name, {}).values())

    assert total("repro_remote_workers_lost_total") == rec["workers_lost"]
    assert total("repro_remote_redispatches_total") == rec["redispatched_chunks"]
    assert total("repro_remote_duplicate_results_total") == rec["duplicate_results"]
    assert total("repro_remote_dataset_reships_total") == 0
    assert total("repro_remote_fallbacks_total") == (
        rec["local_fallbacks"] + rec["serial_fallbacks"])
    injected = counters.get("repro_faults_injected_total", {})
    remote_injected = sum(v for k, v in injected.items() if 'layer="remote"' in k)
    assert remote_injected == rec["faults_injected"], (injected, rec)
    executor.shutdown()
