"""Backend scaling bench — serial vs process vs remote wall-clock.

Not a paper claim: this measures the simulator's execution backends on
one large k-center instance.  Besides timing, it *asserts* the tentpole
contract: every backend must produce bit-identical results and an
identical CountingOracle ledger for the same seed.

Run standalone (CI runs it at toy scale)::

    python benchmarks/bench_backend_scaling.py                 # full, n=50k
    python benchmarks/bench_backend_scaling.py --n 2000 --out results/smoke.json

Speedup expectations: the process backend needs real cores — on a
1-core runner it degrades gracefully to serial execution (the artifact
records ``cpu_count`` so numbers are interpretable).  On a >= 4-core
machine expect >= 2x over serial for GIL-holding metrics and large n.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.reports import format_table  # noqa: E402
from repro.api import build_cluster, solve_kcenter  # noqa: E402
from repro.metric.euclidean import EuclideanMetric  # noqa: E402
from repro.metric.oracle import CountingOracle  # noqa: E402
from repro.mpc.executor import BACKENDS, get_executor  # noqa: E402


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


def run_backend(points, backend: str, *, k: int, machines: int, seed: int,
                eps: float, workers: int | None,
                remote_workers=None) -> dict:
    oracle = CountingOracle(EuclideanMetric(points))
    executor = get_executor(backend, max_workers=workers, workers=remote_workers)
    cluster = build_cluster(
        metric=oracle, machines=machines, seed=seed, backend=executor
    )
    t0 = time.perf_counter()
    res = solve_kcenter(k=k, eps=eps, cluster=cluster)
    wall = time.perf_counter() - t0
    row = {
        "backend": backend,
        "wall_s": wall,
        # the *effective* parallelism: caps, cpu count, batch size, and
        # any serial fallback or mid-run worker loss applied — so a
        # cpu_count=1 run (or a degraded remote pool) is visible in the
        # artifact instead of silently posing as a parallel one
        "requested_workers": workers,
        "effective_workers": executor.effective_workers(machines),
        "radius": float(res.radius),
        "centers": sorted(int(c) for c in res.centers),
        "rounds": int(res.rounds),
        "total_words": int(cluster.stats.total_words),
        "oracle_calls": int(oracle.calls),
        "oracle_evaluations": int(oracle.evaluations),
    }
    if getattr(executor, "fallback_reason", None):
        row["fallback_reason"] = executor.fallback_reason
    if backend == "remote":
        rec = executor.recovery_stats()
        row["remote"] = {
            "dispatched_chunks": rec["dispatched_chunks"],
            "redispatched_chunks": rec["redispatched_chunks"],
            "workers_lost": rec["workers_lost"],
            "datasets_shipped": rec["datasets_shipped"],
        }
    executor.shutdown()
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--machines", type=int, default=16)
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--workers", type=int, default=None,
        help="worker cap for the process and remote backends "
        "(default: REPRO_WORKERS env var, else cpu count)",
    )
    ap.add_argument(
        "--backends", nargs="+", choices=list(BACKENDS), default=list(BACKENDS)
    )
    ap.add_argument(
        "--remote-workers", default=None, metavar="HOST:PORT,...",
        help="worker agent addresses for the remote backend; when omitted "
        "(and 'remote' is benched) the bench spawns in-process agents — "
        "REPRO_WORKERS many, default 2 — on ephemeral ports",
    )
    ap.add_argument(
        "--out", default=None,
        help="JSON artifact path (default: benchmarks/results/bench_backend_scaling.json)",
    )
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    points = rng.normal(scale=4.0, size=(args.n, 2))

    # the remote backend needs agents: use the given addresses, or spawn
    # a local in-process pool so the artifact records >1 effective worker
    # even on a single box (the agents are real socket peers either way)
    agents = []
    remote_workers = args.remote_workers
    if "remote" in args.backends and remote_workers is None:
        from repro.mpc.executor import workers_from_env  # noqa: E402
        from repro.mpc.remote import WorkerAgent  # noqa: E402

        pool = workers_from_env() or 2
        agents = [WorkerAgent() for _ in range(pool)]
        remote_workers = [a.start() for a in agents]

    try:
        rows = [
            run_backend(
                points, b, k=args.k, machines=args.machines, seed=args.seed,
                eps=args.epsilon, workers=args.workers,
                remote_workers=remote_workers if b == "remote" else None,
            )
            for b in args.backends
        ]
    finally:
        for agent in agents:
            agent.stop()

    # the tentpole contract: bit-identical results AND oracle ledger
    base = rows[0]
    for row in rows[1:]:
        for key in ("radius", "centers", "rounds", "total_words",
                    "oracle_calls", "oracle_evaluations"):
            assert row[key] == base[key], (
                f"{row['backend']} diverged from {base['backend']} on {key}: "
                f"{row[key]!r} != {base[key]!r}"
            )

    serial_wall = next((r["wall_s"] for r in rows if r["backend"] == "serial"), None)
    for row in rows:
        row["speedup_vs_serial"] = (
            serial_wall / row["wall_s"] if serial_wall else None
        )

    print(
        format_table(
            [
                {
                    "backend": r["backend"],
                    "workers": r["effective_workers"],
                    "wall-clock (s)": r["wall_s"],
                    "speedup": r["speedup_vs_serial"],
                    "radius": r["radius"],
                    "rounds": r["rounds"],
                    "oracle evals": r["oracle_evaluations"],
                }
                for r in rows
            ],
            title=(
                f"backend scaling — k-center n={args.n}, k={args.k}, "
                f"m={args.machines}, cpus={os.cpu_count()}"
            ),
            precision=3,
        )
    )
    print("\nall backends bit-identical (results + oracle ledger): OK")

    out = Path(
        args.out
        or Path(__file__).resolve().parent / "results" / "bench_backend_scaling.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    artifact = {
        "meta": {
            "bench": "bench_backend_scaling",
            "n": args.n,
            "k": args.k,
            "machines": args.machines,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "workers_env": os.environ.get("REPRO_WORKERS") or None,
            "platform": sys.platform,
            "python": sys.version.split()[0],
            "git_sha": _git_sha(),
        },
        "rows": [
            # centers are bulky and identical across backends; keep one copy
            {k: v for k, v in r.items() if k != "centers"} for r in rows
        ],
        "centers": base["centers"],
    }
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
