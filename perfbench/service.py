"""The ``service-mixed`` workload: ``repro serve`` driven over HTTP.

The server runs in its own process with its default in-memory stores,
two job workers and the serial backend.  Two closed-loop client threads
each run their slice of the fixed op list (see
:func:`oplists.service_ops`) through the shipped
:class:`~repro.service.ServiceClient`, waiting with
:meth:`~repro.service.ServiceClient.wait` at its default poll schedule.
Outputs are checked after the timed phase, against local recomputation
on the same points.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.analysis.lower_bounds import diversity_upper_bound, kcenter_lower_bound
from repro.service import ServiceClient

import oplists
from layers import SpanLog, TimedClient, span
from report import Digest, check_solution, proc_peak_rss_mb

_LISTENING = re.compile(r"listening on (http://\S+)")

#: job-server settings: the defaults a user gets, pinned so a default
#: change shows up as a benchmark change rather than silently
SERVER_ARGS = ("--port", "0", "--workers", "2", "--backend", "serial")


class Server:
    """``repro serve`` as a child process (stopped by :meth:`stop`)."""

    def __init__(self, root: Path, out_dir: Path, tag: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        self._out = open(out_dir / f"server-{tag}.out", "w+", encoding="utf-8")
        self._err = open(out_dir / f"server-{tag}.log", "w", encoding="utf-8")
        # A launcher that ignores SIGINT (a shell's background job, say)
        # passes that on; the server needs it back to stop cleanly.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *SERVER_ARGS],
            cwd=root, env=env, stdout=self._out, stderr=self._err,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            self._out.seek(0)
            match = _LISTENING.search(self._out.read())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("repro serve did not start; see its log in the output dir")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


class ServiceBench:
    """Set-up, op runner and checks for ``service-mixed``."""

    def __init__(self, root: Path, out_dir: Path, seed: int, n_ops: int) -> None:
        self.root, self.out_dir = root, out_dir
        self.w = oplists.SERVICE_MIXED
        self.setup_spec = oplists.service_setup(self.w, seed)
        self.ops = oplists.service_ops(self.w, seed, n_ops)
        self.points = {f"init:{i}": oplists.service_dataset_points(spec)
                       for i, spec in enumerate(self.setup_spec["datasets"])}
        self._bounds: dict = {}

    def start(self, tag: str) -> tuple:
        """Start a server, register the set-up datasets, run the warm-up job."""
        server = Server(self.root, self.out_dir, tag)
        try:
            client = ServiceClient(server.url)
            names = {name: client.register_points(pts)["id"]
                     for name, pts in self.points.items()}
            warm = dict(self.setup_spec["warmup"])
            warm["dataset"] = names[warm["dataset"]]
            done = client.wait(client.submit(**warm)["id"])
            if done["state"] != "done":
                raise RuntimeError(f"warm-up job ended {done['state']}")
        except BaseException:
            server.stop()
            raise
        return server, names

    # -- the timed phase ---------------------------------------------------

    def run(self, server: Server, names: dict, log: SpanLog = None) -> dict:
        """Run every client's slice to the end; returns the op records."""
        # an op a client never reached stays failed
        records = [{"id": op["id"], "kind": op["kind"], "error": "not run",
                    "latency": 0.0} for op in self.ops]
        threads = [
            threading.Thread(target=self._client, name=f"client-{c}",
                             args=(c, server.url, names, records, log))
            for c in range(self.w.clients)
        ]
        start = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - start
        return {"wall": wall, "records": records,
                "retries": sum(r.pop("retries", 0) for r in records)}

    def _client(self, c: int, url: str, names: dict, records: list, log) -> None:
        client = TimedClient(url, log) if log is not None else ServiceClient(url)
        specs: dict = {}  # job op id -> spec as submitted
        for op in self.ops[c::self.w.clients]:
            kind, rec = op["kind"], {"id": op["id"], "kind": op["kind"]}
            payload = _payload(op)
            t0 = time.perf_counter()
            try:
                with span(log, "op", op=op["id"]) if log is not None else contextlib.nullcontext():
                    if kind == "register":
                        rec["dataset"] = client.register_points(payload)["id"]
                    elif kind == "list":
                        rec["listed"] = len(client.jobs_page(limit=op["limit"])["jobs"])
                    else:
                        if kind == "cold":
                            spec = dict(op["spec"], dataset=names[op["spec"]["dataset"]])
                        elif kind == "hit":
                            spec = specs[op["repeat_of"]]
                        else:  # append_warm
                            parent = specs[op["parent_op"]]
                            child = client.append_dataset(parent["dataset"], payload)
                            rec["dataset"] = child["id"]
                            spec = dict(parent, dataset=child["id"], warm_start=True)
                        rec["job"] = client.wait(client.submit(**spec)["id"])
                        specs[op["id"]] = spec
            except Exception as exc:  # an op that raises is a failed op
                rec["error"] = repr(exc)
            rec["latency"] = time.perf_counter() - t0
            records[op["id"]] = rec
        records[self.ops[c]["id"]]["retries"] = client.transport_retries

    # -- checks and metrics ------------------------------------------------

    def _dataset(self, op: dict) -> str:
        """Name of the dataset a job op ran on, for local recomputation."""
        if op["kind"] == "cold":
            return op["spec"]["dataset"]
        if op["kind"] == "hit":
            return self._dataset(self.ops[op["repeat_of"]])
        name = f"append:{op['id']}"
        if name not in self.points:
            parent = self.points[self._dataset(self.ops[op["parent_op"]])]
            delta = oplists.service_dataset_points(op["delta"])
            self.points[name] = np.vstack([parent, delta])
        return name

    def _reference(self, name: str, algorithm: str):
        key = (name, algorithm)
        if key not in self._bounds:
            metric = repro.EuclideanMetric(self.points[name])
            bound = (kcenter_lower_bound if algorithm == "kcenter"
                     else diversity_upper_bound)(metric, self.w.k)
            self._bounds[key] = (metric, bound)
        return self._bounds[key]

    def check(self, outcome: dict) -> dict:
        """Check every op; returns the failed and passed counts and the
        results digest."""
        records, digest = outcome["records"], Digest()
        failed = 0
        for op, rec in zip(self.ops, records):
            rec["ok"] = "error" not in rec
            if rec["ok"] and "job" in rec:
                try:
                    rec["ok"] = self._check_job(op, rec, records)
                except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
                    rec["ok"], rec["error"] = False, f"check failed: {exc!r}"
            failed += not rec["ok"]
            job = rec.get("job")
            result = job.get("result") if job else None
            if result is not None:
                record = result["record"]
                ids = record["centers"] if "centers" in record else record["ids"]
                obj = record["radius"] if "radius" in record else record["diversity"]
                digest.add(op["id"], op["kind"], ids, obj, record["rounds"],
                           result["mpc_stats"]["total_words"],
                           result["oracle"]["calls"], result["oracle"]["evaluations"])
            else:
                digest.add(op["id"], op["kind"], rec.get("dataset"),
                           "error" in rec)
        return {"failed": failed, "ok_ops": len(records) - failed,
                "digest": digest.hexdigest()}

    def _check_job(self, op: dict, rec: dict, records: list) -> bool:
        job = rec["job"]
        if job["state"] != "done":
            return False
        result = job["result"]
        record = result["record"]
        if op["kind"] == "hit":
            original = records[op["repeat_of"]].get("job") or {}
            same = record == (original.get("result") or {}).get("record")
            return bool(job["cached"] and same)
        if job["cached"]:
            return False  # every cold or warm spec is new: it must be computed
        algorithm = result["algorithm"]
        metric, bound = self._reference(self._dataset(op), algorithm)
        if algorithm == "kcenter":
            ids, objective = record["centers"], record["radius"]
        else:
            ids, objective = record["ids"], record["diversity"]
        ok, rec["ratio"] = check_solution(metric, bound, algorithm, ids, objective,
                                          self.w.k, self.w.eps)
        return ok

    def _solves(self, records: list) -> list:
        """Done job records with their ratio (a hit takes its original's)."""
        out = []
        for op, rec in zip(self.ops, records):
            if rec.get("job", {}).get("state") != "done":
                continue
            ratio = rec.get("ratio")
            if op["kind"] == "hit":
                ratio = records[op["repeat_of"]].get("ratio")
            if ratio is not None:
                out.append((rec, ratio))
        return out

    def end_to_end(self, outcome: dict) -> dict:
        records = outcome["records"]
        values = {
            "latency_s_p50": np.percentile([r["latency"] for r in records], 50),
            "latency_s_p90": np.percentile([r["latency"] for r in records], 90),
            "ops_per_s": sum(r["ok"] for r in records) / outcome["wall"],
        }
        solves = self._solves(records)
        if solves:  # otherwise no job finished and the solve figures read 0
            values.update(
                approx_ratio_ub=np.mean([ratio for _, ratio in solves]),
                mpc_rounds=np.mean([r["job"]["result"]["record"]["rounds"]
                                    for r, _ in solves]),
                mpc_words=np.mean([r["job"]["result"]["mpc_stats"]["total_words"]
                                   for r, _ in solves]))
        return values

    def per_layer(self, plain: dict, traced: dict, log: SpanLog) -> dict:
        """Service-layer figures of the traced pass (client-side spans plus
        the job payloads), and the layers visible in the payloads."""
        records = traced["records"]

        def lat(kind):
            return [r["latency"] for r in records if r["kind"] == kind]

        jobs = [r["job"] for r in records if r.get("job")]
        computed = [j for j in jobs if j["state"] == "done" and not j["cached"]]
        results = [j["result"] for j in computed]
        cold = [r for r in records if r["kind"] == "cold" and r.get("job", {}).get("finished_at")]
        http = [(name, end - start) for name, start, end, *_ in log.records
                if name.startswith("service.http.")]
        phases = [row for res in results for row in res["phases"]]
        per_result = max(1, len(results))
        return {
            "metric.kernel_calls": _mean([res["oracle"]["calls"] for res in results]),
            "metric.kernel_evals": _mean([res["oracle"]["evaluations"] for res in results]),
            "core.probes": sum(row["count"] for row in phases
                               if row["phase"].endswith("/probe")) / per_result,
            "core.mis_rounds": sum(row["count"] for row in phases
                                   if row["phase"] == "mis/round") / per_result,
            "mpc.messages": sum(row["messages"] for row in phases
                                if row["depth"] == 0) / per_result,
            "mpc.peak_known_points": _mean([res["mpc_stats"]["peak_known_points"]
                                            for res in results]),
            "service.solve_s_p50": _p50(lat("cold")),
            "service.hit_s_p50": _p50(lat("hit")),
            "service.dataset_s_p50": _p50(
                [d for name, d in http if name == "service.http.dataset"]),
            "service.list_s_p50": _p50(lat("list")),
            "service.queue_wait_s_p50": _p50(
                [j["started_at"] - j["created_at"] for j in computed]),
            "service.run_s_p50": _p50(
                [j["finished_at"] - j["started_at"] for j in computed]),
            "service.poll_gap_s_p50": _p50(
                [r["latency"] - (r["job"]["finished_at"] - r["job"]["created_at"])
                 for r in cold]),
            "service.polls_per_job": (sum(1 for name, _ in http if name == "service.http.poll")
                                      / max(1, len(jobs))),
            "service.job_bytes": _mean([len(json.dumps(j)) for j in jobs]),
            "service.cache_hit_ratio": sum(j["cached"] for j in jobs) / max(1, len(jobs)),
            "service.retries": traced["retries"],
            "obs.trace_overhead": (plain["ok_ops"] / plain["wall"])
                                  / (traced["ok_ops"] / traced["wall"]) - 1.0,
        }


def _mean(values: list) -> float:
    """Mean, or 0 for an op kind a short op list does not hold."""
    return float(np.mean(values)) if values else 0.0


def _p50(values: list) -> float:
    """Median, or 0 for an op kind a short op list does not hold."""
    return float(np.percentile(values, 50)) if values else 0.0


def _payload(op: dict):
    """Points an op uploads, generated before its timer starts."""
    if op["kind"] == "register":
        return oplists.service_dataset_points(op["points"])
    if op["kind"] == "append_warm":
        return oplists.service_dataset_points(op["delta"])
    return None
