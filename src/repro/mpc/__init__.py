"""Massively-parallel-computation (MPC) simulator.

Implements the model of Karloff–Suri–Vassilvitskii as used by the paper:
``m`` machines, each holding a private partition of the input; execution
proceeds in synchronous rounds; within a round machines compute locally
and post messages, which are delivered at the start of the next round.
The simulator charges every message to its sender and receiver in
*words* (a point costs its dimensionality, an id or scalar costs 1) and
records per-round, per-machine communication so experiments can check
the paper's Õ(mk) bounds directly.

Strict *known-point* mode enforces the distance-oracle discipline: a
machine may only evaluate distances among points it stores locally or
has received in a message.
"""

from repro.mpc.accounting import ClusterStats, RoundStats
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import (
    BACKENDS,
    ExecutionBackend,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from repro.mpc.remote import (
    REMOTE_WORKERS_ENV_VAR,
    RemoteExecutor,
    WorkerAgent,
    parse_worker_addresses,
)
from repro.mpc.machine import Machine
from repro.mpc.message import Ids, Message, PointBatch, payload_words
from repro.mpc.limits import Limits
from repro.mpc.partition import (
    adversarial_partition,
    block_partition,
    get_partitioner,
    random_partition,
    skewed_partition,
)

__all__ = [
    "MPCCluster",
    "Machine",
    "Message",
    "PointBatch",
    "Ids",
    "payload_words",
    "Limits",
    "BACKENDS",
    "ExecutionBackend",
    "SerialExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "WorkerAgent",
    "REMOTE_WORKERS_ENV_VAR",
    "parse_worker_addresses",
    "get_executor",
    "ClusterStats",
    "RoundStats",
    "random_partition",
    "block_partition",
    "skewed_partition",
    "adversarial_partition",
    "get_partitioner",
]
