"""Command-line front end.

Usage examples::

    repro kcenter   --workload gaussian --n 1000 --k 10 --machines 8
    repro diversity --workload clustered --n 500 --k 8 --epsilon 0.2
    repro supplier  --customers 600 --suppliers 200 --k 8
    repro mis       --workload uniform --n 400 --tau 0.8 --k 20
    repro serve     --port 8000 --workers 4 --backend process
    repro workloads

Every command prints the solution quality, the MPC round count, and the
per-machine communication summary as an ASCII table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro._version import __version__
from repro.analysis.reports import format_table
from repro.api import build_cluster, solve_diversity, solve_kcenter, solve_ksupplier
from repro.constants import TheoryConstants
from repro.core import mpc_dominating_set, mpc_k_bounded_mis
from repro.metric.euclidean import EuclideanMetric
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import BACKENDS
from repro.workloads.registry import available_workloads, make_workload
from repro.workloads.suppliers import supplier_instance


def _constants(args: argparse.Namespace) -> TheoryConstants:
    preset = getattr(args, "constants", "practical")
    if preset == "paper":
        return TheoryConstants.paper()
    return TheoryConstants.practical()


def _build_cluster(args: argparse.Namespace, metric) -> MPCCluster:
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "report", None)
        or getattr(args, "metrics_out", None)
    ):
        # transparent wrapper so phase spans (and the oracle-call
        # metric counters) pick up oracle-call counts
        from repro.metric.oracle import CountingOracle

        metric = CountingOracle(metric)
    # seed-derived trace root: --trace-out output (including executor
    # child spans) carries deterministic trace/span ids for a fixed seed
    from repro.obs.tracing import TraceContext

    return build_cluster(
        metric=metric,
        machines=args.machines,
        seed=args.seed,
        partition=args.partition,
        backend=getattr(args, "backend", "serial"),
        workers=getattr(args, "workers", None),
        faults=getattr(args, "faults", None),
        trace=TraceContext.from_seed(args.seed, name="cli"),
    )


def _print_stats(cluster: MPCCluster) -> None:
    print()
    print(format_table([cluster.stats.summary()], title="MPC statistics"))
    if cluster.faults is not None:
        print(f"\nfault injection: {cluster.faults.describe()}")
        stats_fn = getattr(cluster.executor, "recovery_stats", None)
        if stats_fn is not None:
            rec = stats_fn()
            print(
                f"executor recovery: {rec['faults_injected']} injected, "
                f"{rec['chunk_retries']} chunk retries, "
                f"{rec['serial_fallbacks']} serial fallbacks"
            )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machines", type=int, default=8, help="number of MPC machines m")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="serial",
        help="compute backend for the per-machine work; 'process' "
        "forks local workers that read the points they inherited, "
        "'remote' dispatches to socket-connected worker agents "
        "(--workers) — every backend is bit-identical to 'serial' for "
        "any fixed seed",
    )
    p.add_argument(
        "--workers",
        metavar="HOST:PORT,...",
        default=None,
        help="remote worker agent addresses for --backend remote "
        "(comma-separated; default: the REPRO_REMOTE_WORKERS "
        "environment variable); start agents with 'repro worker "
        "--listen HOST:PORT'",
    )
    p.add_argument(
        "--partition",
        choices=["random", "block", "skewed"],
        default="random",
        help="input partitioning strategy",
    )
    p.add_argument(
        "--constants",
        choices=["practical", "paper"],
        default="practical",
        help="analysis-constant preset (see repro.constants)",
    )
    p.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the result record (and MPC stats) as JSON",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record the run and write a trace file (see --trace-format)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics-registry snapshot (counters/gauges/"
        "histograms) as JSON after the run; the registry is reset at "
        "command start, so the dump covers exactly this invocation and "
        "its counter values are bit-reproducible for a fixed seed "
        "(see docs/metrics.md)",
    )
    p.add_argument(
        "--trace-format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="trace file format: Chrome trace-event JSON "
        "(chrome://tracing / Perfetto) or JSON Lines",
    )
    p.add_argument(
        "--report",
        choices=["phases"],
        default=None,
        help="print an extra report; 'phases' shows the per-phase "
        "rounds/words/oracle-calls breakdown",
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection plan: 'key=value,...' or a "
        "JSON object (e.g. 'seed=7,worker_kill=0.5,machine_fault=0.1'); "
        "recovery keeps results bit-identical — see docs/fault_tolerance.md",
    )


def _setup_metrics(args: argparse.Namespace, cluster: MPCCluster) -> None:
    """Feed the global metrics registry for commands that drive the
    algorithms directly (the facade ``solve_*`` calls attach their own
    observer; ``mis``/``dominating`` bypass the facade)."""
    if not getattr(args, "metrics_out", None):
        return
    from repro.obs.metrics import MetricsObserver

    cluster.obs.add(MetricsObserver())


def _setup_obs(args: argparse.Namespace, cluster: MPCCluster):
    """Attach a recorder when any observability output was requested."""
    if not (getattr(args, "trace_out", None) or getattr(args, "report", None)):
        return None
    from repro.obs import Recorder

    return Recorder.attach(cluster)


def _finish_obs(args: argparse.Namespace, recorder) -> None:
    if recorder is None:
        return
    from repro.obs import export_run, phase_report

    if getattr(args, "report", None) == "phases":
        print()
        print(phase_report(recorder.log))
    if getattr(args, "trace_out", None):
        path = export_run(recorder.log, args.trace_out, args.trace_format)
        print(f"\nwrote {args.trace_format} trace to {path}")


def _maybe_metrics(args: argparse.Namespace) -> None:
    """Dump the global metrics registry when ``--metrics-out`` was given."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from repro.obs.metrics import default_registry

    default_registry().write_json(path)
    print(f"\nwrote metrics snapshot to {path}")


def _maybe_json(
    args: argparse.Namespace, result, cluster: MPCCluster, recorder=None
) -> None:
    path = getattr(args, "json_out", None)
    if not path:
        return
    from repro.analysis.io import write_json

    meta = {"command": args.command, "stats": cluster.stats.summary()}
    if recorder is not None:
        meta["phases"] = recorder.log.phase_summary()
    write_json([result.to_dict()], path, meta=meta)
    print(f"\nwrote JSON result to {path}")


def _cmd_kcenter(args: argparse.Namespace) -> int:
    wl = make_workload(args.workload, args.n, seed=args.seed)
    cluster = _build_cluster(args, wl.metric)
    recorder = _setup_obs(args, cluster)
    res = solve_kcenter(
        k=args.k, eps=args.epsilon, constants=_constants(args), cluster=cluster
    )
    print(
        format_table(
            [
                {
                    "workload": wl.name,
                    "n": wl.n,
                    "k": args.k,
                    "epsilon": args.epsilon,
                    "radius": res.radius,
                    "4-approx r": res.coreset_value,
                    "centers": res.size,
                    "rounds": res.rounds,
                }
            ],
            title="MPC k-center (Algorithm 5)",
        )
    )
    _print_stats(cluster)
    _finish_obs(args, recorder)
    _maybe_json(args, res, cluster, recorder)
    _maybe_metrics(args)
    return 0


def _cmd_diversity(args: argparse.Namespace) -> int:
    wl = make_workload(args.workload, args.n, seed=args.seed)
    cluster = _build_cluster(args, wl.metric)
    recorder = _setup_obs(args, cluster)
    res = solve_diversity(
        k=args.k, eps=args.epsilon, constants=_constants(args), cluster=cluster
    )
    print(
        format_table(
            [
                {
                    "workload": wl.name,
                    "n": wl.n,
                    "k": args.k,
                    "epsilon": args.epsilon,
                    "diversity": res.diversity,
                    "4-approx r": res.coreset_value,
                    "rounds": res.rounds,
                }
            ],
            title="MPC k-diversity (Algorithm 2)",
        )
    )
    _print_stats(cluster)
    _finish_obs(args, recorder)
    _maybe_json(args, res, cluster, recorder)
    _maybe_metrics(args)
    return 0


def _cmd_supplier(args: argparse.Namespace) -> int:
    inst = supplier_instance(
        args.customers,
        args.suppliers,
        supplier_layout=args.layout,
        rng=np.random.default_rng(args.seed),
    )
    metric = EuclideanMetric(inst.points)
    cluster = _build_cluster(args, metric)
    recorder = _setup_obs(args, cluster)
    res = solve_ksupplier(
        customers=inst.customers,
        suppliers=inst.suppliers,
        k=args.k,
        eps=args.epsilon,
        constants=_constants(args),
        cluster=cluster,
    )
    print(
        format_table(
            [
                {
                    "customers": args.customers,
                    "suppliers": args.suppliers,
                    "k": args.k,
                    "epsilon": args.epsilon,
                    "radius": res.radius,
                    "9-approx r": res.coreset_value,
                    "opened": res.size,
                    "rounds": res.rounds,
                }
            ],
            title="MPC k-supplier (Algorithm 6)",
        )
    )
    _print_stats(cluster)
    _finish_obs(args, recorder)
    _maybe_json(args, res, cluster, recorder)
    _maybe_metrics(args)
    return 0


def _cmd_mis(args: argparse.Namespace) -> int:
    wl = make_workload(args.workload, args.n, seed=args.seed)
    cluster = _build_cluster(args, wl.metric)
    recorder = _setup_obs(args, cluster)
    _setup_metrics(args, cluster)
    res = mpc_k_bounded_mis(cluster, args.tau, args.k, constants=_constants(args))
    print(
        format_table(
            [
                {
                    "workload": wl.name,
                    "n": wl.n,
                    "tau": args.tau,
                    "k": args.k,
                    "size": res.size,
                    "maximal": res.maximal,
                    "terminated_via": res.terminated_via,
                    "rounds": res.rounds,
                }
            ],
            title="MPC k-bounded MIS (Algorithm 4)",
        )
    )
    _print_stats(cluster)
    _finish_obs(args, recorder)
    _maybe_json(args, res, cluster, recorder)
    _maybe_metrics(args)
    return 0


def _cmd_dominating(args: argparse.Namespace) -> int:
    wl = make_workload(args.workload, args.n, seed=args.seed)
    cluster = _build_cluster(args, wl.metric)
    recorder = _setup_obs(args, cluster)
    _setup_metrics(args, cluster)
    res = mpc_dominating_set(cluster, args.tau, constants=_constants(args))
    print(
        format_table(
            [
                {
                    "workload": wl.name,
                    "n": wl.n,
                    "tau": args.tau,
                    "size": res.size,
                    "packing LB": res.lower_bound,
                    "certified ratio <=": res.certified_ratio,
                    "rounds": res.rounds,
                }
            ],
            title="MPC dominating set (k-bounded MIS application)",
        )
    )
    _print_stats(cluster)
    _finish_obs(args, recorder)
    _maybe_json(args, res, cluster, recorder)
    _maybe_metrics(args)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Head-to-head table: the paper's k-center vs every baseline."""
    from repro.analysis.lower_bounds import kcenter_lower_bound
    from repro.baselines import (
        ene_sampling_kcenter,
        gonzalez_kcenter,
        hochbaum_shmoys_kcenter,
        malkomes_kcenter,
    )

    wl = make_workload(args.workload, args.n, seed=args.seed)
    lb = kcenter_lower_bound(wl.metric, args.k)
    rows = []

    cluster = _build_cluster(args, wl.metric)
    res = solve_kcenter(
        k=args.k, eps=args.epsilon, constants=_constants(args), cluster=cluster
    )
    rows.append(
        {
            "algorithm": "MPC k-center (paper, 2+eps)",
            "radius": res.radius,
            "ratio vs LB": res.radius / lb,
            "rounds": res.rounds,
        }
    )
    cluster = _build_cluster(args, wl.metric)
    _, r = malkomes_kcenter(cluster, args.k)
    rows.append(
        {"algorithm": "Malkomes et al. (MPC, 4)", "radius": r, "ratio vs LB": r / lb, "rounds": 4}
    )
    cluster = _build_cluster(args, wl.metric)
    _, r = ene_sampling_kcenter(cluster, args.k)
    rows.append(
        {"algorithm": "Ene-style sampling (MPC)", "radius": r, "ratio vs LB": r / lb, "rounds": 6}
    )
    _, r = gonzalez_kcenter(wl.metric, args.k)
    rows.append(
        {"algorithm": "GMM / Gonzalez (seq., 2)", "radius": r, "ratio vs LB": r / lb, "rounds": 0}
    )
    if args.n <= 2048:
        _, r = hochbaum_shmoys_kcenter(wl.metric, args.k)
        rows.append(
            {
                "algorithm": "Hochbaum-Shmoys (seq., 2)",
                "radius": r,
                "ratio vs LB": r / lb,
                "rounds": 0,
            }
        )
    print(
        format_table(
            rows,
            title=f"k-center comparison — {wl.name}, n={wl.n}, k={args.k}, m={args.machines}",
        )
    )
    print(f"\ncertified optimum lower bound: {lb:.6g}")
    _maybe_metrics(args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run an algorithm with message tracing and print the communication
    breakdown by message tag and by round."""
    from repro.obs import Recorder

    wl = make_workload(args.workload, args.n, seed=args.seed)
    cluster = _build_cluster(args, wl.metric)
    recorder = Recorder.attach(cluster)
    if args.algorithm == "kcenter":
        solve_kcenter(k=args.k, eps=args.epsilon, constants=_constants(args), cluster=cluster)
    elif args.algorithm == "diversity":
        solve_diversity(k=args.k, eps=args.epsilon, constants=_constants(args), cluster=cluster)
    else:
        _setup_metrics(args, cluster)
        mpc_k_bounded_mis(cluster, args.tau, args.k, constants=_constants(args))

    print(
        format_table(
            [
                {"message tag": tag, "words": words}
                for tag, words in recorder.log.words_by_tag().items()
            ],
            title=f"communication by message tag — {args.algorithm}, "
            f"n={wl.n}, k={args.k}, m={args.machines}",
        )
    )
    heavy = recorder.log.heaviest_messages(limit=5)
    print()
    print(
        format_table(
            [
                {"round": e.round_no, "src": e.src, "dst": e.dst, "tag": e.tag, "words": e.words}
                for e in heavy
            ],
            title="heaviest individual messages",
        )
    )
    print(f"\ntotal: {cluster.stats.total_words} words over {cluster.stats.rounds} rounds")
    _finish_obs(args, recorder)
    _maybe_metrics(args)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    for name in available_workloads():
        print(name)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the clustering job service (see docs/service.md).

    Roles (``--role``): ``all`` is the classic self-contained server;
    ``frontend`` serves HTTP but runs no workers; ``worker`` runs no
    HTTP at all and drains the shared work queue.  The split roles
    require ``--state-dir`` — a durable directory is what frontends and
    workers share (see docs/persistence.md).
    """
    from repro.obs.logging import configure as configure_logging
    from repro.service.http import serve, serve_forever

    configure_logging(fmt=args.log_format)
    if args.role in ("frontend", "worker") and args.state_dir is None:
        print(
            f"error: --role {args.role} requires --state-dir "
            "(split roles share state through a durable directory)",
            file=sys.stderr,
        )
        return 2
    if args.role == "worker":
        return _run_worker(args)
    server = serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        remote_workers=args.remote_workers,
        queue_limit=args.queue_limit,
        default_timeout_s=args.job_timeout,
        cache_entries=args.cache_entries,
        max_history=args.max_history,
        max_retries=args.max_retries,
        state_dir=args.state_dir,
        role=args.role,
        lease_s=args.lease_timeout,
        faults=args.faults,
    )
    store_note = f", state-dir={args.state_dir}" if args.state_dir else ""
    print(
        f"repro service v{__version__} listening on {server.url} "
        f"(role={args.role}, workers={server.manager.workers}, "
        f"backend={args.backend}, queue-limit={args.queue_limit}{store_note})"
    )
    if server.faults is not None:
        print(f"fault injection active: {server.faults.describe()}")
    serve_forever(server)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """``repro serve --role worker``: drain the shared queue, no HTTP."""
    import time as _time

    from repro.service.datasets import DatasetRegistry
    from repro.service.jobs import JobManager, RetryPolicy
    from repro.service.store import open_stores
    from repro.sweeps import SweepManager

    stores = open_stores(
        args.state_dir,
        queue_limit=args.queue_limit,
        cache_entries=args.cache_entries,
    )
    manager = JobManager(
        DatasetRegistry(stores.datasets),
        stores=stores,
        role="worker",
        lease_s=args.lease_timeout,
        workers=args.workers,
        backend=args.backend,
        remote_workers=args.remote_workers,
        default_timeout_s=args.job_timeout,
        max_history=args.max_history,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        faults=args.faults,
    )
    manager.start()
    # workers also run a sweeper: an analysis whose submitting frontend
    # (or a fellow worker) died mid-sweep still gets finalized by
    # whoever drains the last cell
    sweeps = SweepManager(manager).start()
    print(
        f"repro worker v{__version__} draining {args.state_dir} "
        f"(worker-id={manager.worker_id}, workers={args.workers}, "
        f"backend={args.backend}, lease={args.lease_timeout:g}s)"
    )
    try:
        while True:
            _time.sleep(0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        sweeps.stop()
        manager.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker --listen HOST:PORT``: run one remote compute agent.

    Agents serve pickled machine batches to a ``--backend remote``
    driver (see docs/remote.md).  The slot count — concurrent chunks
    this agent computes — comes from ``--slots``, falling back to the
    ``REPRO_WORKERS`` environment variable, then the CPU count.
    """
    import os

    from repro.mpc.remote import WorkerAgent, parse_worker_addresses

    try:
        ((host, port),) = parse_worker_addresses(
            args.listen, allow_zero_port=True
        )
    except ValueError as exc:
        print(f"error: --listen: {exc}", file=sys.stderr)
        return 2
    agent = WorkerAgent(host, port, slots=args.slots, allow_exit=True)
    bound_host, bound_port = agent.start()
    print(
        f"repro worker v{__version__} listening on {bound_host}:{bound_port} "
        f"(slots={agent.slots}, pid={os.getpid()})",
        flush=True,
    )
    try:
        agent.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        agent.stop()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: expand a grid of solver runs, score and rank
    every cell, print the report (see docs/sweeps.md).

    In-process by default; ``--url`` submits the identical SweepSpec to
    a running service instead — determinism makes the two reports
    byte-identical for a fixed spec.
    """
    spec_kwargs = {
        "solvers": list(args.solvers),
        "ks": [int(k) for k in args.ks],
        "epss": [float(e) for e in args.epsilons],
        "partitions": list(args.partitions),
        "trim_modes": list(args.trim_modes),
        "seeds": [int(s) for s in args.seeds],
        "machines": args.machines,
        "constants": args.constants,
        "outliers": args.outliers,
        "name": args.name,
    }
    workloads = args.workload or ["gaussian"]

    if args.url is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(args.url)
        ds_ids = [
            client.register_workload(w, args.n, seed=args.dataset_seed)["id"]
            for w in workloads
        ]
        record = client.submit_analysis(datasets=ds_ids, **spec_kwargs)
        analysis_id, n_cells = record["id"], record["cells"]
        print(f"analysis {analysis_id}: {n_cells} cells submitted to {args.url}")
        record = client.wait_analysis(analysis_id, timeout=args.timeout)
        state, error = record["state"], record.get("error")
        report = client.analysis_report(analysis_id) if state == "done" else None
    else:
        from repro.service.datasets import DatasetRegistry
        from repro.service.jobs import JobManager
        from repro.service.store import open_stores
        from repro.sweeps import SweepManager, SweepSpec

        stores = open_stores(args.state_dir)
        datasets = DatasetRegistry(stores.datasets)
        ds_ids = [
            datasets.register_workload(w, args.n, seed=args.dataset_seed).id
            for w in workloads
        ]
        manager = JobManager(
            datasets, stores=stores, workers=args.workers, backend=args.backend
        ).start()
        sweeps = SweepManager(manager)
        try:
            rec = sweeps.submit(SweepSpec(datasets=ds_ids, **spec_kwargs))
            print(f"analysis {rec.id}: {len(rec.cell_job_ids)} cells submitted")
            rec = sweeps.wait(rec.id, timeout=args.timeout)
            analysis_id, state, error = rec.id, rec.state, rec.error
            report = rec.report if state == "done" else None
        finally:
            sweeps.stop()
            manager.stop()

    if report is None:
        print(f"analysis {analysis_id} ended {state}: {error or ''}", file=sys.stderr)
        return 1

    cells = {cell["index"]: cell for cell in report["cells"]}
    frontier = set(report["frontier"]["cells"])
    rows = []
    for rank, index in enumerate(report["ranking"], start=1):
        cell = cells[index]
        rows.append(
            {
                "rank": rank,
                "cell": index,
                "solver": cell["solver"],
                "dataset": cell["dataset"][:12],
                "k": cell["k"],
                "eps": cell["eps"],
                "seed": cell["seed"],
                "ratio": "-" if cell["ratio"] is None else f"{cell['ratio']:.4f}",
                "vs": cell["reference_kind"] or "-",
                "rounds": cell["rounds"],
                "words": cell["words"],
                "oracle": cell["oracle_calls"],
                "front": "*" if index in frontier else "",
            }
        )
    counts = report["counts"]
    print(
        format_table(
            rows,
            title=f"analysis {analysis_id} — {len(report['cells'])} cells "
            f"({', '.join(f'{v} {k}' for k, v in sorted(counts.items()))})",
        )
    )
    print()
    print(report["ascii_frontier"])
    reco = report["recommendation"]
    if reco is not None:
        print(f"\nrecommendation: {reco['reason']}")
    if args.json_out:
        import json as _json

        with open(args.json_out, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote report JSON to {args.json_out}")
    return 0


#: record fields included in the ``repro stream`` report — the
#: deterministic subset (solution ids, objective, ladder state);
#: excludes wall-clock timings and other run-environment noise so the
#: JSON report is byte-identical across backends and service topologies
_STREAM_RECORD_KEYS = (
    "centers",
    "radius",
    "ids",
    "diversity",
    "tau",
    "coreset_value",
    "k",
    "epsilon",
)


def _stream_entry(version: int, ds: dict, payload: dict, warm: bool) -> dict:
    """One deterministic per-version row of the stream report."""
    record = payload["record"]
    return {
        "version": version,
        "dataset": ds["id"],
        "fingerprint": ds["fingerprint"],
        "n": ds["n"],
        "warm": warm,
        "record": {k: record[k] for k in _STREAM_RECORD_KEYS if k in record},
        "oracle": payload.get("oracle"),
        "warm_start": payload.get("warm_start"),
        "drift": payload.get("drift"),
    }


def _cmd_stream(args: argparse.Namespace) -> int:
    """``repro stream``: simulate an arrival stream — register a base
    batch, append delta batches one at a time, warm-start re-solve each
    chained version, and print the per-version drift table (see
    docs/streaming.md).

    In-process by default; ``--url`` drives a running service through
    ``POST /v1/datasets/<id>/append`` + ``warm_start`` jobs instead.
    For a fixed seed the ``--json-out`` report is byte-identical either
    way, across execution backends, and across worker crashes —
    ``tests/e2e/test_service_stream.py`` diffs exactly that.
    """
    from repro.workloads.trajectories import trajectory_stream

    if args.appends < 1:
        print("error: --appends must be >= 1", file=sys.stderr)
        return 2
    batches = trajectory_stream(
        args.n,
        batches=args.appends + 1,
        rng=np.random.default_rng(args.dataset_seed),
    )
    spec_kwargs = {
        "algorithm": args.algorithm,
        "k": args.k,
        "eps": args.epsilon,
        "machines": args.machines,
        "seed": args.seed,
    }

    entries = []
    if args.url is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(args.url)
        ds = client.register_points(batches[0])
        for version in range(args.appends + 1):
            if version > 0:
                ds = client.append_dataset(ds["id"], batches[version])
            warm = version > 0
            job = client.submit(dataset=ds["id"], warm_start=warm, **spec_kwargs)
            job = client.wait(job["id"], timeout=args.timeout)
            if job["state"] != "done":
                print(
                    f"job {job['id']} ended {job['state']}: {job.get('error') or ''}",
                    file=sys.stderr,
                )
                return 1
            entries.append(_stream_entry(version, ds, job["result"], warm))
    else:
        from repro.service.datasets import DatasetRegistry
        from repro.service.jobs import JobManager
        from repro.service.spec import JobSpec
        from repro.service.store import open_stores

        stores = open_stores(args.state_dir)
        datasets = DatasetRegistry(stores.datasets)
        manager = JobManager(
            datasets, stores=stores, workers=args.workers, backend=args.backend
        ).start()
        try:
            ds = datasets.register_points(batches[0]).describe()
            for version in range(args.appends + 1):
                if version > 0:
                    ds = datasets.append(ds["id"], batches[version]).describe()
                warm = version > 0
                job = manager.submit(
                    JobSpec(dataset=ds["id"], warm_start=warm, **spec_kwargs)
                )
                job = manager.wait(job.id, timeout=args.timeout)
                if job.state != "done":
                    print(
                        f"job {job.id} ended {job.state}: {job.error or ''}",
                        file=sys.stderr,
                    )
                    return 1
                entries.append(_stream_entry(version, ds, job.result, warm))
        finally:
            manager.stop()

    rows = []
    for entry in entries:
        record = entry["record"]
        drift = entry["drift"] or {}
        objective = record.get("radius", record.get("diversity"))
        oracle = entry["oracle"] or {}
        rows.append(
            {
                "version": entry["version"],
                "dataset": entry["dataset"][:14],
                "n": entry["n"],
                "mode": "warm" if entry["warm"] else "cold",
                "objective": f"{objective:.4f}",
                "appended": drift.get("appended", "-"),
                "overlap": (
                    "-"
                    if drift.get("center_overlap") is None
                    else f"{drift['center_overlap']:.2f}"
                ),
                "drift": (
                    "-"
                    if drift.get("drift_ratio") is None
                    else f"{drift['drift_ratio']:.4f}"
                ),
                "oracle_evals": oracle.get("evaluations", "-"),
            }
        )
    print(
        format_table(
            rows,
            title=(
                f"stream — {args.algorithm}, k={args.k}, "
                f"{len(entries)} versions ({args.appends} appends)"
            ),
        )
    )

    if args.json_out:
        import json as _json

        report = {
            "algorithm": args.algorithm,
            "k": args.k,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "dataset_seed": args.dataset_seed,
            "n": args.n,
            "appends": args.appends,
            "versions": entries,
        }
        with open(args.json_out, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote stream report JSON to {args.json_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "MPC k-center clustering and diversity maximization "
            "(reproduction of Haqi & Zarrabi-Zadeh, SPAA 2023)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kcenter", help="run MPC k-center (Algorithm 5)")
    p.add_argument("--workload", default="gaussian", choices=available_workloads())
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=_cmd_kcenter)

    p = sub.add_parser("diversity", help="run MPC k-diversity (Algorithm 2)")
    p.add_argument("--workload", default="gaussian", choices=available_workloads())
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("supplier", help="run MPC k-supplier (Algorithm 6)")
    p.add_argument("--customers", type=int, default=600)
    p.add_argument("--suppliers", type=int, default=200)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument(
        "--layout", choices=["uniform", "colocated", "perimeter"], default="uniform"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_supplier)

    p = sub.add_parser("mis", help="run the MPC k-bounded MIS (Algorithm 4)")
    p.add_argument("--workload", default="uniform", choices=available_workloads())
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--k", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser(
        "dominating", help="run the MPC dominating set (k-bounded MIS application)"
    )
    p.add_argument("--workload", default="uniform", choices=available_workloads())
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--tau", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dominating)

    p = sub.add_parser(
        "compare", help="head-to-head k-center table: paper vs all baselines"
    )
    p.add_argument("--workload", default="gaussian", choices=available_workloads())
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "trace", help="run an algorithm and print its communication breakdown"
    )
    p.add_argument(
        "--algorithm", choices=["kcenter", "diversity", "mis"], default="kcenter"
    )
    p.add_argument("--workload", default="gaussian", choices=available_workloads())
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=1.0, help="threshold (mis only)")
    _add_common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve", help="run the clustering job service (HTTP/JSON API)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8000, help="bind port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2, help="job worker threads")
    p.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="serial",
        help="execution backend each job's solver run uses",
    )
    p.add_argument(
        "--remote-workers",
        metavar="HOST:PORT,...",
        default=None,
        help="remote worker agent addresses for --backend remote jobs "
        "(comma-separated; default: the REPRO_REMOTE_WORKERS "
        "environment variable)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max queued jobs before submissions get HTTP 429",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock budget (jobs may override)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=1024, help="result cache capacity"
    )
    p.add_argument(
        "--max-history",
        type=int,
        default=1024,
        help="terminal jobs retained for GET /jobs (oldest evicted beyond this)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="default retry budget for crashed jobs (specs may override)",
    )
    p.add_argument(
        "--role",
        choices=["all", "frontend", "worker"],
        default="all",
        help="all: accept + execute (default); frontend: HTTP only, no "
        "workers; worker: no HTTP, drain the shared queue (both split "
        "roles require --state-dir)",
    )
    p.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state directory (SQLite + dataset blobs); omit for "
        "volatile in-memory state; share one directory across frontend "
        "and worker processes to scale out",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="worker lease on a running job; a worker silent this long is "
        "declared dead and its jobs are re-enqueued",
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection plan applied to the HTTP layer "
        "(service_error/service_drop/error_burst) and every solver run "
        "(worker_*/machine_fault); 'key=value,...' or a JSON object",
    )
    p.add_argument(
        "--log-format",
        choices=["json", "text"],
        default="text",
        help="structured-log format on stderr: one JSON object per line "
        "(with trace_id/span_id/job_id fields) or human-readable text",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "sweep",
        help="run an analysis sweep (a scored grid of solver runs) and "
        "print the ranked report with a recommendation",
    )
    p.add_argument(
        "--workload",
        action="append",
        choices=available_workloads(),
        default=None,
        help="workload to sweep over; repeat for a multi-dataset sweep "
        "(default: gaussian)",
    )
    p.add_argument("--n", type=int, default=500, help="points per workload")
    p.add_argument(
        "--dataset-seed", type=int, default=0, help="workload generation seed"
    )
    p.add_argument(
        "--solvers",
        nargs="+",
        default=["kcenter", "gonzalez", "malkomes"],
        metavar="SOLVER",
        help="solver axis (repro.api.SOLVERS names; ksupplier excluded)",
    )
    p.add_argument(
        "--ks", nargs="+", type=int, default=[4, 8], metavar="K", help="k axis"
    )
    p.add_argument(
        "--epsilons",
        nargs="+",
        type=float,
        default=[0.1],
        metavar="EPS",
        help="epsilon axis",
    )
    p.add_argument(
        "--partitions",
        nargs="+",
        choices=["random", "block", "skewed"],
        default=["random"],
        help="partitioner axis",
    )
    p.add_argument(
        "--trim-modes",
        nargs="+",
        choices=["random", "id", "paper"],
        default=["random"],
        help="trim tie-breaking axis",
    )
    p.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="SEED", help="seed axis"
    )
    p.add_argument("--machines", type=int, default=None, help="MPC machines per cell")
    p.add_argument(
        "--constants", choices=["practical", "paper"], default="practical"
    )
    p.add_argument(
        "--outliers",
        type=int,
        default=None,
        help="outlier budget z, applied to outlier-capable solvers only",
    )
    p.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="serial",
        help="execution backend for in-process cell runs",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="in-process worker threads"
    )
    p.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="submit to a running service (POST /v1/analyses) instead of "
        "running in-process; the report is byte-identical either way",
    )
    p.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state directory for the in-process run (shares the "
        "result cache with a service using the same directory)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="overall sweep deadline",
    )
    p.add_argument("--name", default="", help="free-form sweep label")
    p.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the full ranked report as JSON",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "stream",
        help="simulate an arrival stream: append chained dataset versions "
        "and warm-start re-solve each one, reporting solution drift",
    )
    p.add_argument(
        "--algorithm", choices=["kcenter", "diversity"], default="kcenter"
    )
    p.add_argument(
        "--n", type=int, default=240, help="total points across all batches"
    )
    p.add_argument(
        "--appends",
        type=int,
        default=3,
        help="delta batches appended after the base batch",
    )
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0, help="solver seed")
    p.add_argument(
        "--dataset-seed",
        type=int,
        default=0,
        help="trajectory arrival-stream generation seed",
    )
    p.add_argument("--machines", type=int, default=None, help="MPC machines")
    p.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="serial",
        help="execution backend for in-process solver runs",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="in-process worker threads"
    )
    p.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="drive a running service (append + warm_start jobs over HTTP) "
        "instead of running in-process; the report is byte-identical "
        "either way",
    )
    p.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state directory for the in-process run",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-job deadline",
    )
    p.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the deterministic per-version stream report as JSON",
    )
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "worker",
        help="run one remote compute agent for --backend remote drivers",
    )
    p.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="bind address (PORT 0 = ephemeral; the bound port is printed)",
    )
    p.add_argument(
        "--slots",
        type=int,
        default=None,
        help="concurrent chunk slots (default: REPRO_WORKERS env var, "
        "then the CPU count)",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("workloads", help="list available workload names")
    p.set_defaults(func=_cmd_workloads)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (``repro`` console script)."""
    args = build_parser().parse_args(argv)
    if getattr(args, "metrics_out", None):
        # scope the dump to this invocation: same seed ⇒ identical
        # counter values, even when main() is called twice in-process
        from repro.api import metrics_reset

        metrics_reset()
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
