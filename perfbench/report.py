"""Small helpers shared by the workloads: output check, digest, peak
RSS, environment."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess

import numpy as np

#: BLAS / OpenMP thread variables, recorded as found (never set here)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "REPRO_WORKERS")


def check_solution(metric, bound: float, algorithm: str, ids, objective: float,
                   k: int, eps: float) -> tuple:
    """``(ok, ratio)`` for a k-center or diversity answer on ``metric``.

    The ids must be distinct and in range, and the ratio to the reference
    ``bound`` at most 4(1+ε).  For k-center, 1 ≤ |ids| ≤ k and
    ``metric.radius(all, ids)`` must equal the objective exactly; for
    diversity, |ids| = k and ``metric.diversity(ids)`` must equal it.
    A zero diversity raises ``ZeroDivisionError``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    ratio = objective / bound if algorithm == "kcenter" else bound / objective
    valid = (ids.size > 0 and ids.size == np.unique(ids).size
             and ids.min() >= 0 and ids.max() < metric.n
             and ratio <= 4 * (1 + eps))
    if not valid:
        return False, ratio
    if algorithm == "kcenter":
        ok = ids.size <= k and metric.radius(np.arange(metric.n), ids) == objective
    else:
        ok = ids.size == k and metric.diversity(ids) == objective
    return bool(ok), ratio


class Digest:
    """SHA-256 over one canonical JSON line per op, in op order."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *fields) -> None:
        self._h.update(json.dumps(fields, separators=(",", ":")).encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak RSS) of a live process, MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git_sha(root) -> str | None:
    """HEAD of ``root`` when it is the top of a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(str(root)):
        return None
    return lines[1]


def _blas() -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment(root, workload: str, seed: int, effective_workers: int) -> dict:
    """The stamp printed with every result."""
    import scipy

    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "effective_workers": effective_workers,
        "workload": workload,
        "seed": seed,
    }
