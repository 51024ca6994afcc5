"""Benchmark entry point: run one workload from a seed and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload kcenter-2d --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
both plain and through the layer wrappers, prints the per-layer metrics
and writes the spans to ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The program is imported from
``src/`` of the checkout and nowhere else; without it the benchmark
exits with status 2.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before anything is imported

import argparse  # noqa: E402
import atexit  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: end-to-end metrics (untraced run): name -> unit.  The failure share
#: (failed ÷ attempted) is printed on its own line instead: it reads 0
#: on a clean run, and a gated metric must never be 0.
END_TO_END = {
    "setup_s": "s", "latency_s_p50": "s", "latency_s_p90": "s",
    "ops_per_s": "1/s", "approx_ratio_ub": "ratio",
    "mpc_rounds": "rounds", "mpc_words": "words", "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run): name -> (unit, better).  A layer that
#: does not run, or cannot be seen from outside, in a workload reads 0.
PER_LAYER = {
    "metric.kernel_s": ("s", "lower"),
    "metric.kernel_calls": ("count", "lower"),
    "metric.kernel_evals": ("count", "lower"),
    "metric.evals_per_s": ("1/s", "higher"),
    "metric.bytes_computed": ("bytes", "lower"),
    "helpers.count_within_s": ("s", "lower"),
    "helpers.count_within_calls": ("count", "lower"),
    "helpers.dist_to_set_s": ("s", "lower"),
    "helpers.glue_s": ("s", "lower"),
    "core.probes": ("count", "lower"),
    "core.mis_rounds": ("count", "lower"),
    "core.self_s": ("s", "lower"),
    "mpc.round_s": ("s", "lower"),
    "mpc.messages": ("count", "lower"),
    "mpc.peak_known_points": ("count", "lower"),
    "executor.map_s": ("s", "lower"),
    "executor.dispatches": ("count", "lower"),
    "executor.child_busy_s": ("s", "lower"),
    "executor.overhead_s": ("s", "lower"),
    "executor.effective_workers": ("count", "higher"),
    "executor.retries": ("count", "lower"),
    "service.solve_s_p50": ("s", "lower"),
    "service.hit_s_p50": ("s", "lower"),
    "service.dataset_s_p50": ("s", "lower"),
    "service.list_s_p50": ("s", "lower"),
    "service.queue_wait_s_p50": ("s", "lower"),
    "service.run_s_p50": ("s", "lower"),
    "service.poll_gap_s_p50": ("s", "lower"),
    "service.polls_per_job": ("count", "lower"),
    "service.job_bytes": ("bytes", "lower"),
    "service.cache_hit_ratio": ("ratio", "higher"),
    "service.retries": ("count", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}

#: set-ups measured per untraced run (this one plus fresh-process probes);
#: setup_s is their median
SETUPS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["kcenter-2d", "diversity-64d-process", "service-mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit (used internally)")
    return p.parse_args(argv)


def _setup_probes(args, count: int) -> list:
    """Set-up times of ``count`` fresh processes, one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=170, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started
    one, and wait for it to end.

    The process backend keeps the points in shared memory, which starts
    the tracker; left alone, it outlives the benchmark by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    # Registered before the program is imported, so it runs after the
    # program's own exit handlers have released their shared memory.
    atexit.register(_stop_resource_tracker)

    import numpy as np

    import oplists
    from report import environment, peak_rss_mb

    workload = oplists.WORKLOADS[args.workload]
    n_ops = oplists.op_count(workload, args.seconds)
    service = args.workload == "service-mixed"
    if service:
        from service import ServiceBench

        bench = ServiceBench(ROOT, OUT, args.seed, n_ops)
        server, names = bench.start("plain")
    else:
        from inproc import SolveBench

        bench = SolveBench(workload, args.seed, n_ops)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        if service:
            server.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from layers import SpanLog

    log = SpanLog() if args.trace else None

    if service:
        try:
            plain = bench.run(server, names)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        plain.update(bench.check(plain))
        passes = {"plain": plain}
        if log is not None:
            server, names = bench.start("traced")
            try:
                traced = bench.run(server, names, log)
            finally:
                server.stop()
            traced.update(bench.check(traced))
            passes["traced"] = traced
    else:
        passes = bench.run(log)
        rss = peak_rss_mb()  # before any helper subprocess below is reaped

    workers = 1 if service else bench.effective_workers()
    spec = {k: v for k, v in dataclasses.asdict(workload).items() if k != "why"}
    env = environment(ROOT, args.workload, args.seed, workers)
    env.update(ops=n_ops, seconds=args.seconds, trace=args.trace, spec=spec)
    print("env: " + json.dumps(env))

    digests = {name: p["digest"] for name, p in passes.items()}
    attempted = sum(len(p["records"]) for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    correct = failed == 0 and len(set(digests.values())) == 1
    for name, digest in digests.items():
        print(f"digest {args.workload} seed={args.seed} {name}: {digest}")
    latencies = [r["latency"] for r in passes["plain"]["records"]]
    beyond = sum(x > np.percentile(latencies, 90) for x in latencies)
    print(f"samples: latency n={len(latencies)}, beyond p90={beyond}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted}")

    if log is None:
        setups = [setup_s] + _setup_probes(args, SETUPS - 1)
        values = bench.end_to_end(passes["plain"])
        values.update(setup_s=statistics.median(setups), peak_rss_mb=rss)
        print("setup_s samples: " + json.dumps(setups))
        _emit(correct, attempted, failed, values, END_TO_END)
        return 0

    if service:
        values = bench.per_layer(passes["plain"], passes["traced"], log)
    else:
        values = bench.per_layer(passes, log)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    log.write_jsonl(path, {"env": env, "digests": digests})
    print(f"spans: {path.relative_to(ROOT)} ({len(log.records)} spans)")
    _emit(correct, attempted, failed, values,
          {name: unit for name, (unit, _) in PER_LAYER.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
