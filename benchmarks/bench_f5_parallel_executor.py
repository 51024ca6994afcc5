"""F5 — process local-compute executor (repro-infrastructure series).

Not a paper claim: this measures the simulator itself.  Per-machine
local work inside an MPC round is embarrassingly parallel, so a pool of
forked workers can run it side by side.  The bench verifies the process
executor is a bit-identical drop-in and reports the wall-clock effect.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.reports import format_table
from repro.core.kcenter import mpc_kcenter
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import ProcessExecutor, SerialExecutor
from repro.workloads.registry import make_workload

N, K, M = 4096, 8, 16


def run_comparison() -> list[dict]:
    wl = make_workload("gaussian", N, seed=0)
    rows = []
    results = {}
    for name, executor in [
        ("serial", SerialExecutor()),
        ("process(2)", ProcessExecutor(max_workers=2)),
    ]:
        cluster = MPCCluster(wl.metric, M, seed=0, executor=executor)
        t0 = time.perf_counter()
        res = mpc_kcenter(cluster, K, epsilon=0.2)
        dt = time.perf_counter() - t0
        executor.shutdown()
        results[name] = res
        rows.append(
            {
                "executor": name,
                "workers": executor.effective_workers(M),
                "cpu_count": os.cpu_count(),
                "wall-clock (s)": dt,
                "radius": res.radius,
                "rounds": res.rounds,
            }
        )
    # drop-in check: identical outputs
    assert results["serial"].radius == results["process(2)"].radius
    assert np.array_equal(
        np.sort(results["serial"].centers), np.sort(results["process(2)"].centers)
    )
    return rows


def test_f5_parallel_executor(benchmark, show):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    show(
        format_table(
            rows, title=f"F5 executor comparison (n={N}, k={K}, m={M})", precision=3
        )
    )
    # identical quality is asserted inside; timing is informational
    assert all(r["radius"] > 0 for r in rows)
    benchmark.extra_info["rows"] = [
        {k: v for k, v in r.items()} for r in rows
    ]
