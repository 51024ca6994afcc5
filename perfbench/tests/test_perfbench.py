"""Tests of the benchmark itself: transparent wrappers, pure op lists,
repeat ordering, deterministic digests and a consistent BENCHMARK.json.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.results import ClusteringResult
from repro.metric.oracle import CountingOracle

import oplists
import run
from inproc import SolveBench
from layers import LayerObserver, SpanLog, TimedBackend, TimedOracle, span

ROOT = Path(__file__).resolve().parents[2]


def _solve(points, solver, backend, wrapped):
    fn = repro.solve_kcenter if solver == "kcenter" else repro.solve_diversity
    if not wrapped:
        oracle = CountingOracle(repro.EuclideanMetric(points))
        res = fn(metric=oracle, k=6, machines=8, eps=0.2, seed=5, backend=backend)
        return res, oracle
    log = SpanLog()
    oracle = TimedOracle(repro.EuclideanMetric(points), log)
    cluster = repro.build_cluster(metric=oracle, machines=8, seed=5,
                                  backend=TimedBackend(repro.make_executor(backend), log))
    cluster.obs.add(LayerObserver(log))
    with span(log, "op", op=0):
        res = fn(cluster=cluster, k=6, eps=0.2)
    assert log.totals()["op"]["n"] == 1
    return res, oracle


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("solver", ["kcenter", "diversity"])
def test_layer_wrappers_are_transparent(solver, backend):
    # 2500 x 64 doubles is above the executor's shared-memory threshold,
    # so the process backend runs its shared-memory path too
    points = oplists.mixture_points(3, 2500, 64, 6)
    plain, plain_oracle = _solve(points, solver, backend, wrapped=False)
    timed, timed_oracle = _solve(points, solver, backend, wrapped=True)
    ids = "centers" if solver == "kcenter" else "ids"
    value = "radius" if solver == "kcenter" else "diversity"
    assert np.array_equal(getattr(plain, ids), getattr(timed, ids))
    assert getattr(plain, value) == getattr(timed, value)
    assert plain.rounds == timed.rounds
    assert plain.stats["total_words"] == timed.stats["total_words"]
    assert (plain_oracle.calls, plain_oracle.evaluations) == (
        timed_oracle.calls, timed_oracle.evaluations)


def test_solve_inputs_are_a_pure_function_of_the_seed():
    w = oplists.KCENTER_2D
    a_sets, a_warm, a_seeds = oplists.solve_inputs(w, 7, 30)
    b_sets, b_warm, b_seeds = oplists.solve_inputs(w, 7, 30)
    assert len(a_sets) == w.point_sets
    assert all(np.array_equal(a, b) for a, b in zip(a_sets, b_sets))
    assert (a_warm, a_seeds) == (b_warm, b_seeds)
    assert a_warm not in a_seeds and len(set(a_seeds)) == len(a_seeds)
    c_sets, _, c_seeds = oplists.solve_inputs(w, 8, 30)
    assert not np.array_equal(a_sets[0], c_sets[0]) and a_seeds != c_seeds


def test_service_op_list_is_a_pure_function_of_the_seed():
    w = oplists.SERVICE_MIXED
    assert oplists.service_ops(w, 4, 120) == oplists.service_ops(w, 4, 120)
    assert oplists.service_setup(w, 4) == oplists.service_setup(w, 4)
    assert oplists.service_ops(w, 4, 120) != oplists.service_ops(w, 5, 120)


@pytest.mark.parametrize("seed", range(20))
def test_service_repeats_follow_their_original_on_the_same_client(seed):
    w = oplists.SERVICE_MIXED
    ops = oplists.service_ops(w, seed, 120)
    assert [op["id"] for op in ops] == list(range(len(ops)))
    for c in range(w.clients):
        # a closed-loop client runs its slice in id order, one op at a time,
        # so an op has its result back before any later op of the slice starts
        returned = set()
        for op in ops[c::w.clients]:
            assert op["client"] == c
            for ref in (op.get("repeat_of"), op.get("parent_op")):
                if ref is not None:
                    assert ref in returned
                    assert ops[ref]["kind"] in ("cold", "append_warm")
            if op["kind"] in ("cold", "append_warm"):
                returned.add(op["id"])
    seeds = [op["spec"]["seed"] for op in ops if op["kind"] == "cold"]
    assert len(seeds) == len(set(seeds)), "cold specs must never hit the cache"


def test_service_op_mix_is_fixed():
    w = oplists.SERVICE_MIXED
    kinds = [op["kind"] for op in oplists.service_ops(w, 1, 120)]
    for seed in (2, 3):
        other = [op["kind"] for op in oplists.service_ops(w, seed, 120)]
        assert sorted(other) == sorted(kinds)
    assert kinds.count("hit") / len(kinds) == pytest.approx(0.25)
    # the median op is a single request (hit, registration or listing)
    single = sum(kind in ("hit", "register", "list") for kind in kinds)
    assert single / len(kinds) > 0.55


def test_digest_repeats_and_traced_pass_matches():
    tiny = dataclasses.replace(oplists.KCENTER_2D, n=1500)
    first = SolveBench(tiny, seed=3, n_ops=3).run()
    log = SpanLog()
    second = SolveBench(tiny, seed=3, n_ops=3).run(log)
    assert first["plain"]["failed"] == 0
    assert first["plain"]["digest"] == second["plain"]["digest"]
    assert second["traced"]["digest"] == second["plain"]["digest"]
    other = SolveBench(tiny, seed=4, n_ops=3).run()
    assert other["plain"]["digest"] != first["plain"]["digest"]


@pytest.mark.parametrize("centers, radius", [([], 0.0), ([0, 0], 1.0), ([0, 1], 123.0)])
def test_a_wrong_or_malformed_result_is_a_failed_op(centers, radius):
    tiny = dataclasses.replace(oplists.KCENTER_2D, n=1500, point_sets=1)
    bench = SolveBench(tiny, seed=3, n_ops=1)
    result = ClusteringResult(centers=np.array(centers, dtype=np.int64), radius=radius,
                              k=tiny.k, epsilon=tiny.eps, tau=radius,
                              coreset_value=radius, rounds=1, stats={"total_words": 1,
                                                                     "peak_known_points": 1})
    oracle = CountingOracle(bench.metrics[0])
    rec = bench.summarize({"result": result, "oracle": oracle}, 0, 0.1)
    assert rec["ok"] is False


def test_span_self_time_excludes_in_process_children_only():
    log = SpanLog()
    log.records = [
        ["op", 0.0, 10.0, None, 0, True],
        ["executor.map", 1.0, 5.0, 0, 0, True],
        ["executor.chunk", 1.0, 4.0, 1, 0, False],
        ["metric.kernel", 6.0, 8.0, 0, 0, True],
    ]
    t = log.totals()
    assert t["op"]["self_s"] == pytest.approx(4.0)
    assert t["executor.map"]["self_s"] == pytest.approx(4.0)


def _session_members(sid: int) -> list:
    """Pids of the live processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while being listed
            continue
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_run_leaves_no_process_behind():
    # the process backend's warm-up solve puts the points in shared memory,
    # which starts multiprocessing's resource tracker in the run's session
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "diversity-64d-process", "--seed", "1", "--seconds", "1",
         "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err.decode()
    assert json.loads(out.decode().splitlines()[-1])["setup_s"] > 0
    assert _session_members(proc.pid) == []


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(oplists.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
