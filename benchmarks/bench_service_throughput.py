"""Service throughput bench — concurrent jobs through the HTTP stack.

Not a paper claim: this measures the job service end to end — HTTP
parsing, queueing, the worker pool, the solver, and the result cache —
under a concurrent :class:`~repro.service.client.ServiceClient` load.
Two phases over the same workload dataset:

* **cold** — every job has a distinct seed, so each one runs the
  solver; this is queue + solver throughput.
* **hot** — the cold specs are resubmitted verbatim, so every job is a
  cache hit served at submission time; this is the HTTP + cache floor.

Per phase it reports p50/p95 client-observed job latency and jobs/sec.
The committed artifact (``benchmarks/results/BENCH_service.json``) is
the documented result on one host.  CI gates on the cold phase against
the base commit instead, run alternately on the same runner (see
``benchmarks/perf_gate.py``).

``--sweep`` adds an **analysis sweep** section: one sweep grid is
posted to ``/v1/analyses`` cold (every cell runs the solver), then
resubmitted verbatim (every cell is a cache hit and the analysis
finalizes at submission); the artifact's ``"sweep"`` block reports
cells/sec for both passes plus the cache-dedup ratio, and the bench
fails if the two reports are not byte-identical.

``--scale 1,2`` adds a third section: a **multi-process scaling
curve**.  For each point the bench starts one ``--role frontend``
server on a fresh SQLite state directory, spawns that many
``repro serve --role worker`` *processes* against the same directory,
and replays the cold workload through the shared queue.  This is the
deployment shape ``docs/persistence.md`` describes, measured; the
curve lands under ``"scaling"`` in the artifact (informational — the
regression gate only reads the in-process cold phase).

Run standalone::

    python benchmarks/bench_service_throughput.py --sweep --out run.json
    python benchmarks/bench_service_throughput.py --scale 1,2 --sweep \
        --out benchmarks/results/BENCH_service.json     # the committed run
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.reports import format_table  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.http import run_in_thread, serve  # noqa: E402


def _git_sha() -> str:
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[idx])


def run_phase(client: ServiceClient, specs: list, concurrency: int,
              timeout: float) -> dict:
    """Submit every spec through ``concurrency`` client threads.

    Latency is client-observed: submit → terminal state (a cache hit is
    terminal at submission, so the hot phase measures one round trip).
    """

    def one(spec: dict) -> float:
        t0 = time.perf_counter()
        job = client.submit(**spec)
        if job["state"] not in ("done", "failed", "cancelled"):
            job = client.wait(job["id"], timeout=timeout)
        latency = time.perf_counter() - t0
        if job["state"] != "done":
            raise RuntimeError(f"job ended {job['state']}: {job.get('error')}")
        return latency

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        latencies = sorted(pool.map(one, specs))
    wall = time.perf_counter() - t0
    return {
        "jobs": len(specs),
        "wall_s": wall,
        "jobs_per_s": len(specs) / wall if wall > 0 else 0.0,
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p95_s": _percentile(latencies, 0.95),
    }


def run_sweep_bench(client: ServiceClient, dataset_id: str,
                    args: argparse.Namespace) -> dict:
    """One analysis sweep, cold then resubmitted: cells/sec + cache dedup.

    The cold pass fans the grid out through the worker pool (every cell
    is a distinct cache key, chosen not to collide with the job phases);
    the hot pass resubmits the identical spec, so every cell is served
    from the result cache and the analysis finalizes at submission.  The
    dedup ratio is the fraction of all submitted cells answered by the
    cache — 0.5 here, by construction, and the two reports must be
    byte-identical.
    """
    spec = dict(
        datasets=[dataset_id],
        solvers=["kcenter", "gonzalez", "malkomes"],
        ks=[args.k],
        epss=[args.epsilon],
        seeds=[777, 778],
        machines=args.machines,
        name="bench-sweep",
    )
    before = client.stats()["cache"]

    t0 = time.perf_counter()
    record = client.submit_analysis(**spec)
    done = client.wait_analysis(record["id"], timeout=args.timeout)
    cold_wall = time.perf_counter() - t0
    if done["state"] != "done":
        raise RuntimeError(f"cold sweep ended {done['state']}: {done.get('error')}")
    cells = int(record["cells"])
    report = client.analysis_report(record["id"])

    t0 = time.perf_counter()
    again = client.submit_analysis(**spec)
    done2 = client.wait_analysis(again["id"], timeout=args.timeout)
    hot_wall = time.perf_counter() - t0
    if done2["state"] != "done":
        raise RuntimeError(f"hot sweep ended {done2['state']}: {done2.get('error')}")
    report2 = client.analysis_report(again["id"])
    identical = json.dumps(report, sort_keys=True) == json.dumps(report2, sort_keys=True)
    if not identical:
        raise RuntimeError("resubmitted sweep report is not byte-identical")

    after = client.stats()["cache"]
    hits = after["hits_total"] - before["hits_total"]
    misses = after["misses_total"] - before["misses_total"]
    submitted = hits + misses
    return {
        "cells": cells,
        "cold": {"wall_s": cold_wall,
                 "cells_per_s": cells / cold_wall if cold_wall > 0 else 0.0},
        "hot": {"wall_s": hot_wall,
                "cells_per_s": cells / hot_wall if hot_wall > 0 else 0.0},
        "cache_dedup_ratio": hits / submitted if submitted else 0.0,
        "reports_identical": identical,
    }


def _spawn_worker(state_dir: str, backend: str) -> subprocess.Popen:
    """One ``repro serve --role worker`` process on the shared state dir."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--role", "worker", "--state-dir", state_dir,
            "--workers", "1", "--backend", backend,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def run_scale_point(worker_procs: int, args: argparse.Namespace,
                    seed_base: int) -> dict:
    """Cold throughput with 1 frontend + ``worker_procs`` worker processes.

    A fresh state directory per point keeps the shared result cache from
    serving one point's jobs to the next; ``seed_base`` keeps specs
    distinct across points anyway, so every job really runs the solver.
    """
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as state_dir:
        server = serve(
            port=0, workers=0, backend=args.backend, role="frontend",
            state_dir=state_dir, queue_limit=max(64, 2 * args.jobs),
            max_history=max(1024, 4 * args.jobs),
        )
        run_in_thread(server)
        workers = [_spawn_worker(state_dir, args.backend)
                   for _ in range(worker_procs)]
        try:
            client = ServiceClient(server.url, timeout=30.0)
            ds = client.register_workload("gaussian", args.n, seed=0)
            # warmup: one job per worker, outside the timed window, so
            # interpreter start-up does not pollute the curve
            warm = [
                client.submit(algorithm="kcenter", dataset=ds["id"],
                              k=args.k, eps=args.epsilon,
                              machines=args.machines,
                              seed=seed_base + 9000 + i)
                for i in range(max(2, worker_procs))
            ]
            for job in warm:
                client.wait(job["id"], timeout=args.timeout)
            specs = [
                dict(algorithm="kcenter", dataset=ds["id"], k=args.k,
                     eps=args.epsilon, machines=args.machines,
                     seed=seed_base + i)
                for i in range(args.jobs)
            ]
            phase = run_phase(client, specs, args.concurrency, args.timeout)
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait(timeout=30)
            server.shutdown_service()
    return {"worker_procs": worker_procs, **phase}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000, help="dataset size")
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--machines", type=int, default=4)
    ap.add_argument("--jobs", type=int, default=24,
                    help="jobs per phase (distinct seeds in the cold phase)")
    ap.add_argument("--concurrency", type=int, default=8,
                    help="concurrent client threads")
    ap.add_argument("--workers", type=int, default=2,
                    help="service worker pool size")
    ap.add_argument("--backend", default="serial",
                    help="execution backend for every measured server")
    ap.add_argument(
        "--sweep", action="store_true",
        help="also measure an analysis sweep (POST /v1/analyses): cold "
        "cells/sec, cache-served cells/sec, and the cache-dedup ratio",
    )
    ap.add_argument(
        "--scale", default=None, metavar="N,N,...",
        help="also measure a multi-process scaling curve: for each N, "
        "1 frontend + N worker processes over a shared SQLite state dir",
    )
    ap.add_argument("--timeout", type=float, default=300.0)
    ap.add_argument(
        "--out", default=None,
        help="JSON artifact path (default: benchmarks/results/BENCH_service.json)",
    )
    args = ap.parse_args(argv)

    server = serve(port=0, workers=args.workers, backend=args.backend,
                   queue_limit=max(64, 2 * args.jobs),
                   max_history=max(1024, 4 * args.jobs))
    run_in_thread(server)
    try:
        client = ServiceClient(server.url, timeout=30.0)
        ds = client.register_workload("gaussian", args.n, seed=0)
        specs = [
            dict(algorithm="kcenter", dataset=ds["id"], k=args.k,
                 eps=args.epsilon, machines=args.machines, seed=seed)
            for seed in range(args.jobs)
        ]
        cold = run_phase(client, specs, args.concurrency, args.timeout)
        hot = run_phase(client, specs, args.concurrency, args.timeout)
        stats = client.stats()
        # the sweep pass reuses the same server but tracks its own cache
        # deltas, so it runs after the job-phase stats snapshot
        sweep = run_sweep_bench(client, ds["id"], args) if args.sweep else None
    finally:
        server.shutdown_service()

    cache = stats["cache"]
    assert cache["hits_total"] >= args.jobs, (
        f"hot phase should be cache-served, saw {cache['hits_total']} hits"
    )

    rows = [dict(phase=name, **phase) for name, phase in
            (("cold", cold), ("hot", hot))]
    print(
        format_table(
            [
                {
                    "phase": r["phase"],
                    "jobs": r["jobs"],
                    "wall-clock (s)": r["wall_s"],
                    "jobs/s": r["jobs_per_s"],
                    "p50 latency (s)": r["latency_p50_s"],
                    "p95 latency (s)": r["latency_p95_s"],
                }
                for r in rows
            ],
            title=(
                f"service throughput — n={args.n}, k={args.k}, "
                f"jobs={args.jobs}, concurrency={args.concurrency}, "
                f"workers={args.workers}, cpus={os.cpu_count()}"
            ),
            precision=3,
        )
    )
    print(f"\ncache after both phases: {cache['hits_total']} hits / "
          f"{cache['misses_total']} misses "
          f"(hit ratio {cache['hit_ratio']:.2f})")

    if sweep is not None:
        print(
            format_table(
                [
                    {
                        "pass": name,
                        "cells": sweep["cells"],
                        "wall-clock (s)": sweep[name]["wall_s"],
                        "cells/s": sweep[name]["cells_per_s"],
                    }
                    for name in ("cold", "hot")
                ],
                title="analysis sweep — one grid cold, then cache-served",
                precision=3,
            )
        )
        print(f"sweep cache-dedup ratio: {sweep['cache_dedup_ratio']:.2f} "
              f"(reports byte-identical: {sweep['reports_identical']})")

    scaling = []
    if args.scale:
        counts = [int(tok) for tok in args.scale.split(",") if tok.strip()]
        for i, count in enumerate(counts):
            scaling.append(run_scale_point(count, args, seed_base=(i + 1) * 100000))
        print(
            format_table(
                [
                    {
                        "worker procs": p["worker_procs"],
                        "jobs": p["jobs"],
                        "wall-clock (s)": p["wall_s"],
                        "jobs/s": p["jobs_per_s"],
                        "p50 latency (s)": p["latency_p50_s"],
                        "p95 latency (s)": p["latency_p95_s"],
                    }
                    for p in scaling
                ],
                title=(
                    "multi-process scaling — 1 frontend + N workers, "
                    "shared SQLite state dir"
                ),
                precision=3,
            )
        )

    artifact = {
        "meta": {
            "bench": "bench_service_throughput",
            "n": args.n,
            "k": args.k,
            "epsilon": args.epsilon,
            "machines": args.machines,
            "jobs": args.jobs,
            "concurrency": args.concurrency,
            "workers": args.workers,
            # the pool size the service actually ran with (worker threads
            # are the unit of job parallelism, not cpu cores)
            "effective_workers": stats["workers"],
            "cpu_count": os.cpu_count(),
            "workers_env": os.environ.get("REPRO_WORKERS") or None,
            "platform": sys.platform,
            "python": sys.version.split()[0],
            "git_sha": _git_sha(),
        },
        "phases": {"cold": cold, "hot": hot},
        "sweep": sweep,
        "scaling": scaling,
        "cache": cache,
    }
    out = Path(
        args.out
        or Path(__file__).resolve().parent / "results" / "BENCH_service.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
