"""Workload definitions: inputs and op lists as pure functions of the seed.

Nothing here imports ``repro`` or reads a clock, so the benchmark's own
tests can check that the same seed always yields the same inputs and
the same op list.

Every point set is drawn from a Gaussian mixture whose component means
are a fixed layout (drawn once from :data:`LAYOUT_SEED`); the workload
seed draws the samples, the solve seeds and the op order.  Runs on
different seeds are therefore independent samples of one input
distribution, which keeps the spread between seeds down to sampling
noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: seed of the fixed mixture layouts (component means), shared by all runs
LAYOUT_SEED = 2023


@dataclass(frozen=True)
class SolveWorkload:
    """One in-process solver workload: a point set and a solver setting."""

    name: str
    solver: str  # "kcenter" or "diversity"
    backend: str
    n: int
    dim: int
    components: int
    machines: int
    k: int
    eps: float
    #: ops per second of ``--seconds`` (sets the fixed op count)
    ops_per_s: float
    #: independent point sets per run; op ``i`` solves set ``i % point_sets``
    point_sets: int
    why: str


# One 2-D point set fixes which threshold rungs the search probes, so its
# solve cost, rounds and words vary by up to a fifth between seeds.  With
# six sets per run, the sets a seed drew still made about half of the
# variance of the run's timings between seeds; a set per op (30 at 30 s)
# averages it over five times as many inputs.
KCENTER_2D = SolveWorkload(
    name="kcenter-2d", solver="kcenter", backend="serial",
    n=10_000, dim=2, components=12, machines=16, k=8, eps=0.2, ops_per_s=1.0,
    point_sets=30,
    why="2-D k-center on the serial backend: the distance kernel and the "
        "threshold-count glue dominate; the executor and the service idle",
)

# Words barely move between 64-d sets, but with one set per run the set a
# seed drew still made about half of the variance of p90 between seeds.
# Five sets (5 MB each) average it down at little memory.
DIVERSITY_64D = SolveWorkload(
    name="diversity-64d-process", solver="diversity", backend="process",
    n=10_000, dim=64, components=12, machines=16, k=8, eps=0.2, ops_per_s=1.0,
    point_sets=5,
    why="64-d diversity on forked process workers: fork-per-batch dispatch "
        "and 64-word points dominate, and a low-dimension spatial index "
        "cannot help",
)

SOLVE_WORKLOADS = {w.name: w for w in (KCENTER_2D, DIVERSITY_64D)}


@dataclass(frozen=True)
class ServiceWorkload:
    """The service traffic mix: closed-loop clients over a fixed op list."""

    name: str
    clients: int
    #: sizes of the datasets registered during set-up
    init_sizes: tuple
    #: cold jobs cycle over every (algorithm, set-up dataset) pair
    algorithms: tuple
    #: sizes of datasets registered by ``register`` ops (cycled)
    register_sizes: tuple
    append_size: int
    k: int
    eps: float
    #: share of each op kind in every client's slice; cold takes the rest
    shares: tuple
    ops_per_s: float
    why: str


# Cold jobs run on set-up datasets whose sizes are spaced evenly on a log
# scale, each size as often as every other, so job latencies spread over
# several steps of ``ServiceClient.wait``'s 0.05·1.5^i s poll schedule.
SERVICE_MIXED = ServiceWorkload(
    name="service-mixed", clients=2,
    init_sizes=(500, 800, 1300, 2000, 3200, 5000, 8000),
    algorithms=("kcenter", "diversity"),
    register_sizes=(500, 1000, 2000), append_size=200, k=8, eps=0.2,
    shares=(("hit", 0.25), ("register", 0.15), ("append_warm", 0.05),
            ("list", 0.18)),
    ops_per_s=12.0,
    why="repro serve over HTTP with two closed-loop clients: cold and "
        "cached jobs, dataset writes and job listings; HTTP, queue, store "
        "and cache dominate",
)

WORKLOADS = {**SOLVE_WORKLOADS, SERVICE_MIXED.name: SERVICE_MIXED}


def op_count(workload, seconds: int) -> int:
    """Fixed number of ops for a run of ``seconds`` (never timing-based)."""
    return max(10, int(round(seconds * workload.ops_per_s)))


def _layout(components: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng([LAYOUT_SEED, components, dim])
    return rng.uniform(-10.0, 10.0, size=(components, dim))


def mixture_points(seed, n: int, dim: int, components: int) -> np.ndarray:
    """``n`` samples of the fixed ``components``-mean mixture in ``dim``-d."""
    means = _layout(components, dim)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, components, size=n)
    return means[labels] + rng.normal(size=(n, dim))


def solve_inputs(workload: SolveWorkload, seed: int, n_ops: int):
    """``(point_sets, warmup_seed, solve_seeds)`` for an in-process workload.

    The warm-up seed is distinct from every op's solve seed, so the
    set-up solve never doubles as a measured op.
    """
    point_sets = [mixture_points([seed, 1, i], workload.n, workload.dim,
                                 workload.components)
                  for i in range(workload.point_sets)]
    rng = np.random.default_rng([seed, 2])
    seeds = rng.choice(2**31 - 1, size=n_ops + 1, replace=False)
    return point_sets, int(seeds[0]), [int(s) for s in seeds[1:]]


def service_dataset_points(spec: dict) -> np.ndarray:
    """Points of a dataset recipe ``{"n", "seed"}`` (2-D, 8 components)."""
    return mixture_points([spec["seed"], 7], spec["n"], 2, 8)


def service_setup(workload: ServiceWorkload, seed: int) -> dict:
    """Set-up datasets and the warm-up job of the service workload."""
    datasets = [{"n": n, "seed": seed * 100 + i}
                for i, n in enumerate(workload.init_sizes)]
    warmup = {"algorithm": "kcenter", "dataset": "init:3", "k": workload.k,
              "eps": workload.eps, "seed": 2**31 - 1}
    return {"datasets": datasets, "warmup": warmup}


def service_ops(workload: ServiceWorkload, seed: int, n_ops: int) -> list:
    """The fixed op list, in global op order.

    Client ``c`` runs ops ``c, c + clients, c + 2·clients, …`` in that
    order, one at a time.  Each client's slice has the same fixed
    composition (the shares), shuffled by the seed.  It starts with a
    cold job, and every ``hit`` or ``append_warm`` op names an earlier
    job op *of the same client* (``repeat_of`` / ``parent_op``), so a
    repeat is only ever sent after its original's result has come back.
    Solve seeds are unique across the list, so the only cache hits are
    the ``hit`` ops.
    """
    rng = np.random.default_rng([seed, 3])
    per_client = n_ops // workload.clients
    counts = {kind: int(share * per_client) for kind, share in workload.shares}
    counts["cold"] = per_client - sum(counts.values())
    unique = iter(int(s) for s in rng.choice(2**31 - 2, size=4 * n_ops, replace=False))
    cycle = [(alg, i) for i in range(len(workload.init_sizes))
             for alg in workload.algorithms]

    slices = []
    for c in range(workload.clients):
        rest = [kind for kind, cnt in counts.items() for _ in range(cnt)]
        rest.remove("cold")
        kinds = ["cold"] + [rest[i] for i in rng.permutation(len(rest))]
        specs = [cycle[i % len(cycle)] for i in range(counts["cold"])]
        slices.append((kinds, iter([specs[i] for i in rng.permutation(len(specs))])))

    ops: list = [None] * (per_client * workload.clients)
    for c, (kinds, cold_specs) in enumerate(slices):
        jobs: list = []  # this client's earlier job ops (global ids)
        colds: list = []
        n_reg = 0
        for j, kind in enumerate(kinds):
            op_id = j * workload.clients + c
            op = {"id": op_id, "client": c, "kind": kind}
            if kind == "cold":
                algorithm, dataset = next(cold_specs)
                op["spec"] = {
                    "algorithm": algorithm, "dataset": f"init:{dataset}",
                    "k": workload.k, "eps": workload.eps, "seed": next(unique),
                }
                colds.append(op_id)
                jobs.append(op_id)
            elif kind == "hit":
                op["repeat_of"] = jobs[int(rng.integers(len(jobs)))]
            elif kind == "register":
                size = workload.register_sizes[n_reg % len(workload.register_sizes)]
                op["points"] = {"n": size, "seed": next(unique)}
                n_reg += 1
            elif kind == "append_warm":
                op["parent_op"] = colds[int(rng.integers(len(colds)))]
                op["delta"] = {"n": workload.append_size, "seed": next(unique)}
                jobs.append(op_id)
            else:  # list
                op["limit"] = 100
            ops[op_id] = op
    return ops
