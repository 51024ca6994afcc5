"""The MPC cluster: machines + synchronous rounds + accounting.

Usage pattern (driver style)::

    cluster = MPCCluster(metric, num_machines=8, seed=0)
    for mach in cluster.machines:          # local computation
        sample = mach.rng.random(...) ...
        cluster.send(mach.id, MPCCluster.CENTRAL, PointBatch(sample))
    inboxes = cluster.step()               # round barrier: deliver
    central_msgs = inboxes[MPCCluster.CENTRAL]

Every ``step()`` is one MPC round: queued messages are charged to
senders and receivers, limits (if any) are enforced, receivers learn the
points carried by :class:`~repro.mpc.message.PointBatch` payloads, and
the round counter advances.  Helper wrappers (:meth:`broadcast`,
:meth:`scatter`, :meth:`gather_to_central`, …) express the collective
patterns the paper's algorithms use.

The collectives are array-native.  One call queues one outbox entry per
sender, however many (src, dst) messages it stands for: the sender's
points are range- and strict-checked once, words are charged with
numpy, and every known mask lives in one ``m × n`` boolean array (the
machines' ``_known`` masks are its rows), so a round teaches each
receiver set with one assignment.  :class:`~repro.mpc.message.Message`
envelopes are built only for an inbox a caller reads, and per-message
observer events only while an observer that wants them is attached;
both are synthesised in the order, and with the words, that one
``send()`` per pair would give.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import MachineFault
from repro.faults import MACHINE_FAULT_RETRIES, FaultPlan
from repro.metric.base import Metric
from repro.mpc.accounting import ClusterStats, RoundStats
from repro.mpc.limits import Limits
from repro.mpc.executor import SerialExecutor
from repro.mpc.machine import Machine
from repro.mpc.message import Message, PointBatch, payload_words
from repro.mpc.partition import random_partition
from repro.obs.events import FaultEvent
from repro.obs.logging import get_logger
from repro.obs.observer import ObserverHub

_log = get_logger("repro.mpc.cluster")


def _iter_point_batches(payload: Any):
    """Yield every PointBatch nested anywhere inside a payload."""
    if isinstance(payload, PointBatch):
        yield payload
    elif isinstance(payload, dict):
        for v in payload.values():
            yield from _iter_point_batches(v)
    elif isinstance(payload, (tuple, list)):
        for v in payload:
            yield from _iter_point_batches(v)


def _slice(payload: Any, lo: int, hi: int) -> Any:
    """Items ``lo:hi`` of a scattered payload (points with their columns,
    or array entries)."""
    if isinstance(payload, PointBatch):
        return PointBatch(payload.ids[lo:hi],
                          {name: col[lo:hi] for name, col in payload.columns.items()})
    return payload[lo:hi]


class _Post:
    """One outbox entry: the messages one sender queued in one call.

    Message ``k`` goes to ``dsts[k]`` and costs ``words[k]``.  Without
    ``sizes`` every message carries the whole ``payload`` and every
    receiver learns all of ``teach``; with ``sizes`` message ``k``
    carries the ``k``-th consecutive slice of ``payload`` and its
    receiver learns that slice of ``teach``.
    """

    __slots__ = ("src", "dsts", "words", "tag", "payload", "teach", "sizes", "_messages")

    def __init__(self, src: int, dsts: np.ndarray, words: np.ndarray, tag: str,
                 payload: Any, teach: Optional[np.ndarray] = None,
                 sizes: Optional[np.ndarray] = None) -> None:
        self.src = src
        self.dsts = dsts
        self.words = words
        self.tag = tag
        self.payload = payload
        self.teach = teach
        self.sizes = sizes
        self._messages: Optional[List[Message]] = None

    def messages(self) -> List[Message]:
        """The envelopes this entry stands for, built on first use."""
        if self._messages is None:
            src, tag, payload = self.src, self.tag, self.payload
            dsts = self.dsts.tolist()
            if self.sizes is None:
                self._messages = [Message(src, dst, payload, tag) for dst in dsts]
            else:
                ends = np.cumsum(self.sizes).tolist()
                starts = [0] + ends[:-1]
                self._messages = [Message(src, dst, _slice(payload, lo, hi), tag)
                                  for dst, lo, hi in zip(dsts, starts, ends)]
        return self._messages

    def learn(self, known: np.ndarray) -> bool:
        """Teach every receiver the points its message carries; False
        when the entry carries none."""
        if self.teach is None or not self.teach.size:
            return False
        if self.sizes is None:
            known[np.ix_(self.dsts, self.teach)] = True
        else:
            known[np.repeat(self.dsts, self.sizes), self.teach] = True
        return True


class Inboxes(Mapping):
    """What one :meth:`MPCCluster.step` delivered: ``{machine_id:
    [messages...]}`` with every machine id present.

    A machine's :class:`~repro.mpc.message.Message` list is built the
    first time it is read, in delivery order, so a round whose inboxes
    nobody reads builds no envelopes at all.
    """

    def __init__(self, posts: List[_Post], m: int) -> None:
        self._posts = posts
        self._m = m
        self._boxes: Dict[int, List[Message]] = {}

    def __getitem__(self, dst) -> List[Message]:
        box = self._boxes.get(dst)
        if box is None:
            if not (isinstance(dst, (int, np.integer)) and 0 <= dst < self._m):
                raise KeyError(dst)
            box = [msg for post in self._posts if (post.dsts == dst).any()
                   for msg in post.messages() if msg.dst == dst]
            self._boxes[dst] = box
        return box

    def __iter__(self):
        return iter(range(self._m))

    def __len__(self) -> int:
        return self._m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inboxes({dict(self)!r})"


class MPCCluster:
    """A simulated MPC deployment over one metric space.

    Parameters
    ----------
    metric:
        The distance oracle over the ground set (its ``n`` is the input
        size).
    num_machines:
        ``m``; the paper assumes ``m = n^γ`` for some γ > 0.
    partition:
        Pre-computed list of id arrays (one per machine), or ``None``
        for a seeded random partition.
    seed:
        Master seed; machine RNG streams are spawned from it, so runs
        are reproducible bit-for-bit.
    strict:
        Enforce the known-point discipline (default on).
    limits:
        Optional hard memory/communication caps.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or spec accepted by
        :meth:`~repro.faults.FaultPlan.from_spec`).  Its machine layer
        injects transient :class:`~repro.exceptions.MachineFault`\\ s
        into ``map_machines`` tasks, retried up to
        :data:`~repro.faults.MACHINE_FAULT_RETRIES` times; its executor
        layer is forwarded to the executor (when it supports
        ``set_fault_plan``).
    """

    #: Index of the central machine used by the paper's algorithms.
    CENTRAL = 0

    def __init__(
        self,
        metric: Metric,
        num_machines: int,
        partition: Optional[List[np.ndarray]] = None,
        seed: int = 0,
        strict: bool = True,
        limits: Optional[Limits] = None,
        executor=None,
        faults=None,
    ) -> None:
        if num_machines < 1:
            raise ValueError("need at least one machine")
        self.metric = metric
        self.m = int(num_machines)
        self.seed = int(seed)
        self.strict = strict
        self.limits = limits
        #: resolved fault plan (None = no injection); see repro.faults
        self.faults: Optional[FaultPlan] = FaultPlan.from_spec(faults)
        #: map_machines dispatch counter (machine-fault coordinate)
        self._dispatch_no = 0
        #: executes per-machine local work; see repro.mpc.executor
        self.executor = executor or SerialExecutor()
        bind = getattr(self.executor, "bind", None)
        if bind is not None:
            bind(self)
        if self.faults is not None:
            set_plan = getattr(self.executor, "set_fault_plan", None)
            if set_plan is not None:
                set_plan(self.faults)

        master = np.random.default_rng(seed)
        streams = master.spawn(self.m + 1)
        #: cluster-level RNG (used by drivers for shared coin flips)
        self.rng = streams[self.m]

        if partition is None:
            partition = random_partition(metric.n, self.m, np.random.default_rng(seed ^ 0x9E3779B9))
        if len(partition) != self.m:
            raise ValueError("partition size must equal num_machines")

        self.machines: List[Machine] = [
            Machine(i, metric, partition[i], streams[i], strict=strict)
            for i in range(self.m)
        ]
        #: every machine's known mask, one row each; the machines' own
        #: ``_known`` masks are views of their rows, so a round teaches a
        #: whole receiver set with one assignment
        self._known = np.zeros((self.m, metric.n), dtype=bool)
        for mach in self.machines:
            self._known[mach.id] = mach._known
            mach._known = self._known[mach.id]
        #: per sender, every other machine id (a broadcast's receivers)
        self._others = [np.delete(np.arange(self.m), src) for src in range(self.m)]
        self.stats = ClusterStats(num_machines=self.m)
        #: observability hub: event hooks + phase spans (see repro.obs)
        self.obs = ObserverHub(self)
        self._outbox: List[_Post] = []
        self.round_no = 0
        self._check_memory()

    # -- introspection -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Ground-set size."""
        return self.metric.n

    @property
    def central(self) -> Machine:
        """The central machine (machine 0)."""
        return self.machines[self.CENTRAL]

    def partition_sizes(self) -> np.ndarray:
        return np.array([mach.local_ids.size for mach in self.machines])

    def map_machines(self, fn) -> list:
        """Evaluate ``fn(machine)`` for every machine, possibly in
        parallel (see the ``executor`` constructor argument).  Results
        come back ordered by machine id.  ``fn`` must touch only its
        machine's state — exactly the MPC local-computation contract.
        Backends that need machine-aware dispatch (the process backend
        synchronises RNG streams and oracle counters) provide
        ``map_machines``; the others get the plain indexed form.

        When a fault plan with an active machine layer is installed,
        tasks selected by the plan raise a transient
        :class:`~repro.exceptions.MachineFault` *at entry* — before the
        machine touches its RNG stream or the oracle — and are retried
        in place up to :data:`~repro.faults.MACHINE_FAULT_RETRIES`
        times, so recovered runs stay bit-identical to undisturbed
        ones.  A fault that outlives the budget propagates."""
        task = fn
        if self.faults is not None and self.faults.machine_active:
            self._dispatch_no += 1
            task = self._fault_wrapped(fn, self.round_no, self._dispatch_no)
        mapper = getattr(self.executor, "map_machines", None)
        if mapper is not None:
            return mapper(task, self.machines, metric=self.metric)
        return self.executor.map_indexed(lambda i: task(self.machines[i]), self.m)

    def _fault_wrapped(self, fn, round_no: int, dispatch_no: int):
        """Wrap a map_machines task with machine-fault injection + retry.

        The plan is a pure function, so the driver can emit the full
        injection/recovery record here — even when the task itself runs
        inside a forked worker the driver never hears from again — and
        the retry loop can live *inside* the task, where it works on
        every backend.
        """
        plan = self.faults
        for mach in self.machines:
            n_faults = plan.machine_faults(round_no, dispatch_no, mach.id)
            if n_faults == 0:
                continue
            _log.info(
                "machine fault injected",
                extra={"machine": mach.id, "round_no": round_no,
                       "faults": n_faults,
                       "recovered": n_faults <= MACHINE_FAULT_RETRIES},
            )
            for attempt in range(min(n_faults, MACHINE_FAULT_RETRIES + 1)):
                self.obs.emit_fault(FaultEvent(
                    layer="machine", kind="machine_fault", injected=True,
                    round_no=round_no, target=f"machine {mach.id}",
                    attempt=attempt, detail=f"dispatch {dispatch_no}",
                ))
            if n_faults <= MACHINE_FAULT_RETRIES:
                self.obs.emit_fault(FaultEvent(
                    layer="machine", kind="machine_retry", injected=False,
                    round_no=round_no, target=f"machine {mach.id}",
                    attempt=n_faults,
                    detail=f"recovered after {n_faults} retr"
                           f"{'y' if n_faults == 1 else 'ies'}",
                ))

        def task(mach):
            n_faults = plan.machine_faults(round_no, dispatch_no, mach.id)
            for attempt in range(MACHINE_FAULT_RETRIES + 1):
                try:
                    if attempt < n_faults:
                        # injected at entry: no machine state touched yet,
                        # so the retry below is trivially bit-identical
                        raise MachineFault(mach.id, round_no, attempt)
                    return fn(mach)
                except MachineFault:
                    if attempt >= MACHINE_FAULT_RETRIES:
                        raise
            raise AssertionError("unreachable")  # pragma: no cover

        return task

    # -- messaging ---------------------------------------------------------------

    def _queue(self, src: int, dsts: np.ndarray, payload: Any, tag: str) -> None:
        """Queue ``payload`` from ``src`` to each of ``dsts``, with one
        strict check of the points it carries and one word count."""
        batches = list(_iter_point_batches(payload))
        teach = None
        if batches:
            teach = np.concatenate([b.ids for b in batches]) if len(batches) > 1 else batches[0].ids
            if self.strict:
                self.machines[src].require_known(teach)
        words = payload_words(payload, self.metric.point_words())
        self._outbox.append(_Post(src, dsts, np.full(dsts.size, words, dtype=np.int64), tag,
                                  payload, teach))

    def send(self, src: int, dst: int, payload: Any, tag: str = "") -> None:
        """Queue a message for delivery at the next :meth:`step`.

        In strict mode a :class:`PointBatch` may only carry points the
        *sender* knows.
        """
        if not (0 <= src < self.m and 0 <= dst < self.m):
            raise ValueError("machine id out of range")
        self._queue(src, np.array([dst], dtype=np.int64), payload, tag)

    def broadcast(self, src: int, payload: Any, tag: str = "", include_self: bool = False) -> None:
        """Queue the same payload from ``src`` to every (other) machine:
        one message per receiver, one strict check and one word count."""
        if not 0 <= src < self.m:
            raise ValueError("machine id out of range")
        dsts = np.arange(self.m) if include_self else self._others[src]
        if dsts.size:
            self._queue(src, dsts, payload, tag)

    def scatter(self, src: int, dsts: Sequence[int], payload: Any, sizes: Sequence[int],
                tag: str = "") -> None:
        """Queue ``len(dsts)`` messages from ``src`` that carry consecutive
        slices of one payload: message ``k`` goes to ``dsts[k]`` with the
        next ``sizes[k]`` points of a :class:`PointBatch` (ids and
        columns) or the next ``sizes[k]`` entries of an array.

        Accounts exactly as one :meth:`send` per slice would — the same
        words, messages, learned points and observer events — with one
        strict check for all of the sender's points.
        """
        dsts = np.asarray(dsts, dtype=np.int64).reshape(-1)
        sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
        if sizes.size != dsts.size:
            raise ValueError("scatter needs one size per destination")
        if not dsts.size:
            return
        if not (0 <= src < self.m and 0 <= dsts.min() and dsts.max() < self.m):
            raise ValueError("machine id out of range")
        if isinstance(payload, PointBatch):
            per_item = 1 + self.metric.point_words() + len(payload.columns)
            length, teach = payload.ids.size, payload.ids
            if self.strict:
                self.machines[src].require_known(teach)
        else:
            payload = np.asarray(payload)
            per_item = int(np.prod(payload.shape[1:], dtype=np.int64))
            length, teach = payload.shape[0], None
        if int(sizes.sum()) != length or (sizes < 0).any():
            raise ValueError("scatter sizes must split the payload exactly")
        self._outbox.append(_Post(src, dsts, sizes * per_item, tag, payload, teach, sizes=sizes))

    def step(self) -> Inboxes:
        """Round barrier: deliver all queued messages.

        Returns the inboxes, ``{machine_id: [messages...]}`` (every
        machine id present, possibly with an empty list; each list is
        built when first read).  Charges each message to sender and
        receiver, enforces limits, and teaches receivers the points in
        PointBatch payloads.
        """
        self.round_no += 1
        self.obs.emit_round_start(self.round_no)
        posts, self._outbox = self._outbox, []
        sent = np.zeros(self.m, dtype=np.int64)
        received = np.zeros(self.m, dtype=np.int64)
        messages = 0
        taught = False
        if posts:
            for post in posts:
                sent[post.src] += int(post.words.sum())
                messages += post.dsts.size
                taught |= post.learn(self._known)
            np.add.at(received, np.concatenate([post.dsts for post in posts]),
                      np.concatenate([post.words for post in posts]))
            if self.obs.wants_messages:
                for post in posts:
                    for dst, w in zip(post.dsts.tolist(), post.words.tolist()):
                        self.obs.emit_message(self.round_no, post.src, dst, post.tag, w)

        if self.limits is not None:
            for i in range(self.m):
                self.limits.check_comm(i, self.round_no, int(sent[i] + received[i]))

        round_stats = RoundStats(
            round_no=self.round_no,
            sent=sent,
            received=received,
            messages=messages,
        )
        self.stats.record_round(round_stats)
        if taught or self.limits is not None:
            self._check_memory()
        self.obs.emit_round_end(round_stats)
        return Inboxes(posts, self.m)

    def _check_memory(self) -> None:
        # a flat count per row is several times faster than one
        # count_nonzero(axis=1) over the whole array
        counts = [int(np.count_nonzero(row)) for row in self._known]
        self.stats.peak_known_points = max(self.stats.peak_known_points, max(counts))
        if self.limits is not None:
            pw = self.metric.point_words()
            for mach in self.machines:
                self.limits.check_memory(mach.id, counts[mach.id] * pw)

    # -- collective helpers ---------------------------------------------------------

    def gather_to_central(self, payloads: Dict[int, Any], tag: str = "") -> List[Message]:
        """One round: each ``src -> payload`` message goes to the central
        machine; returns the central inbox sorted by source."""
        for src, payload in payloads.items():
            self.send(src, self.CENTRAL, payload, tag=tag)
        inbox = self.step()[self.CENTRAL]
        return sorted(inbox, key=lambda msg: msg.src)

    def broadcast_points_from_central(self, ids: Iterable[int], columns: dict | None = None, tag: str = "") -> None:
        """One round: central ships a PointBatch to every other machine."""
        self.broadcast(self.CENTRAL, PointBatch(ids, columns), tag=tag)
        self.step()

    def all_to_all_points(self, ids_by_src: Dict[int, np.ndarray], tag: str = "") -> None:
        """One round: every machine ships its batch to every other machine.

        After this, every machine knows the union of all batches.
        """
        for src, ids in ids_by_src.items():
            self.broadcast(src, PointBatch(ids), tag=tag)
        self.step()

    def central_knows(self, ids: Iterable[int]) -> bool:
        return self.central.knows(ids)
