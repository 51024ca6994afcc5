"""The in-process workloads: ``kcenter-2d`` and ``diversity-64d-process``.

One op is one solve from raw points through the public facade, as a
user would call it: build the metric, solve, get the result back.  An
untraced op passes a plain :class:`~repro.metric.oracle.CountingOracle`
(for the ledger in the digest) and a backend name.  A traced op passes
the layer wrappers through :func:`repro.build_cluster` and
``solve_*(cluster=...)`` instead, which is the same computation.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.analysis.lower_bounds import diversity_upper_bound, kcenter_lower_bound
from repro.metric.oracle import CountingOracle

import oplists
from layers import LayerObserver, SpanLog, TimedBackend, TimedOracle, span
from report import Digest, check_solution


class SolveBench:
    """Inputs, reference bounds and op runner for one in-process workload."""

    def __init__(self, workload: oplists.SolveWorkload, seed: int, n_ops: int) -> None:
        self.w = workload
        self.point_sets, self.warmup_seed, self.seeds = oplists.solve_inputs(
            workload, seed, n_ops)
        self.metrics = [repro.EuclideanMetric(p) for p in self.point_sets]
        reference = kcenter_lower_bound if workload.solver == "kcenter" else diversity_upper_bound
        self.bounds = [reference(m, workload.k) for m in self.metrics]
        self.solve(self.point_sets[0], self.warmup_seed)

    def effective_workers(self) -> int:
        executor = repro.make_executor(self.w.backend)
        try:
            return int(executor.effective_workers(self.w.machines))
        finally:
            executor.shutdown()

    def solve(self, points, solve_seed: int, log: SpanLog = None) -> dict:
        """Run one op; returns its result and the objects that watched it."""
        w = self.w
        fn = repro.solve_kcenter if w.solver == "kcenter" else repro.solve_diversity
        if log is None:
            oracle = CountingOracle(repro.EuclideanMetric(points))
            result = fn(metric=oracle, k=w.k, machines=w.machines, eps=w.eps,
                        seed=solve_seed, backend=w.backend)
            return {"result": result, "oracle": oracle}
        oracle = TimedOracle(repro.EuclideanMetric(points), log)
        backend = TimedBackend(repro.make_executor(w.backend), log)
        cluster = repro.build_cluster(metric=oracle, machines=w.machines,
                                      seed=solve_seed, backend=backend)
        observer = cluster.obs.add(LayerObserver(log))
        result = fn(cluster=cluster, k=w.k, eps=w.eps)
        return {"result": result, "oracle": oracle, "backend": backend,
                "observer": observer, "messages": cluster.stats.total_messages}

    def check(self, result, which: int) -> tuple:
        """``(ok, ids, objective, ratio)`` for a result on point set ``which``."""
        w = self.w
        if w.solver == "kcenter":
            ids, objective = np.asarray(result.centers), float(result.radius)
        else:
            ids, objective = np.asarray(result.ids), float(result.diversity)
        ok, ratio = check_solution(self.metrics[which], self.bounds[which], w.solver,
                                   ids, objective, w.k, w.eps)
        return ok, ids, objective, ratio

    def summarize(self, out: dict, which: int, latency: float) -> dict:
        """Check one op's output and keep only the numbers (no big objects)."""
        rec = {"latency": latency, "ok": False}
        if "error" in out:
            rec["error"] = out["error"]
            return rec
        result, oracle = out["result"], out["oracle"]
        try:
            ok, ids, objective, ratio = self.check(result, which)
        except (ArithmeticError, AttributeError, IndexError, TypeError, ValueError) as exc:
            rec["error"] = f"check failed: {exc!r}"  # a malformed result
            return rec
        rec.update(ok=ok, ids=ids.tolist(), objective=objective, ratio=ratio,
                   rounds=result.rounds, words=result.stats["total_words"],
                   peak_known=result.stats["peak_known_points"],
                   calls=oracle.calls, evals=oracle.evaluations)
        if "backend" in out:
            stats = getattr(out["backend"].inner, "recovery_stats", None)
            s = stats() if stats is not None else {}
            rec.update(local_evals=oracle.local_evals, bytes=oracle.bytes_computed,
                       dispatches=out["backend"].dispatches,
                       retries=s.get("chunk_retries", 0) + s.get("serial_fallbacks", 0),
                       probes=out["observer"].probes,
                       mis_rounds=out["observer"].mis_rounds,
                       messages=out["messages"])
        return rec

    def run(self, log: SpanLog = None) -> dict:
        """Run the op list; with ``log``, run each op untraced and then traced.

        Interleaving the two keeps slow drift of a shared machine out of
        the tracing-overhead estimate.  Returns each pass's per-op
        records, failure count and results digest.
        """
        passes = {"plain": []} if log is None else {"plain": [], "traced": []}
        for op_id, solve_seed in enumerate(self.seeds):
            which = op_id % len(self.point_sets)
            points = self.point_sets[which]
            for name, records in passes.items():
                t0 = time.perf_counter()
                try:
                    if name == "traced":
                        with span(log, "op", op=op_id):
                            out = self.solve(points, solve_seed, log)
                    else:
                        out = self.solve(points, solve_seed)
                except Exception as exc:  # an op that raises is a failed op
                    out = {"error": repr(exc)}
                records.append(self.summarize(out, which, time.perf_counter() - t0))
                del out
        return {name: _finish(recs) for name, recs in passes.items()}

    def end_to_end(self, plain: dict) -> dict:
        recs = plain["records"]
        lat = [r["latency"] for r in recs]
        values = {
            "latency_s_p50": np.percentile(lat, 50),
            "latency_s_p90": np.percentile(lat, 90),
            "ops_per_s": sum(r["ok"] for r in recs) / sum(lat),
        }
        done = [r for r in recs if "rounds" in r]
        if done:  # otherwise every op failed and the solve figures read 0
            values.update(approx_ratio_ub=np.mean([r["ratio"] for r in done]),
                          mpc_rounds=np.mean([r["rounds"] for r in done]),
                          mpc_words=np.mean([r["words"] for r in done]))
        return values

    def per_layer(self, outcome: dict, log: SpanLog) -> dict:
        """Per-op means of each layer's work and time, from the traced pass."""
        recs = outcome["traced"]["records"]
        done = [r for r in recs if "rounds" in r]
        if not done:  # every op failed: nothing to attribute
            return {}
        n = len(done)
        t = log.totals()

        def mean(key):
            return np.mean([r[key] for r in done])

        def total(name, key="total_s"):
            return t.get(name, {}).get(key, 0.0)

        kernel_s = total("metric.kernel")
        map_s = total("executor.map") / n
        busy_s = (total("executor.task") + total("executor.chunk")) / n
        workers = self.effective_workers()
        helper_self = sum(row["self_s"] for name, row in t.items()
                          if name.startswith("helpers."))
        plain_s = sum(r["latency"] for r in outcome["plain"]["records"])
        return {
            "metric.kernel_s": kernel_s / n,
            "metric.kernel_calls": mean("calls"),
            "metric.kernel_evals": mean("evals"),
            "metric.evals_per_s": (sum(r["local_evals"] for r in done) / kernel_s
                                   if kernel_s else 0.0),
            "metric.bytes_computed": mean("bytes"),
            "helpers.count_within_s": total("helpers.count_within") / n,
            "helpers.count_within_calls": t.get("helpers.count_within", {}).get("n", 0) / n,
            "helpers.dist_to_set_s": total("helpers.dist_to_set") / n,
            "helpers.glue_s": helper_self / n,
            "core.probes": mean("probes"),
            "core.mis_rounds": mean("mis_rounds"),
            "core.self_s": total("op", "self_s") / n,
            "mpc.round_s": total("mpc.step") / n,
            "mpc.messages": mean("messages"),
            "mpc.peak_known_points": mean("peak_known"),
            "executor.map_s": map_s,
            "executor.dispatches": mean("dispatches"),
            "executor.child_busy_s": busy_s,
            "executor.overhead_s": map_s - busy_s / workers,
            "executor.effective_workers": workers,
            "executor.retries": sum(r["retries"] for r in done),
            "obs.trace_overhead": sum(r["latency"] for r in recs) / plain_s - 1.0,
        }


def _finish(records: list) -> dict:
    digest = Digest()
    for op_id, rec in enumerate(records):
        if "rounds" in rec:
            digest.add(op_id, rec["ids"], rec["objective"], rec["rounds"],
                       rec["words"], rec["calls"], rec["evals"])
        else:
            digest.add(op_id, "error")
    failed = sum(not r["ok"] for r in records)
    return {"records": records, "failed": failed, "digest": digest.hexdigest()}
