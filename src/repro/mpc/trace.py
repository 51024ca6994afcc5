"""Round-by-round message tracing for debugging distributed runs.

Add a :class:`MessageTrace` to a cluster's observer hub and every
delivered message is recorded as a
:class:`~repro.obs.events.MessageEvent` (round, src, dst, tag, words).
Traces answer the questions that matter when an MPC algorithm
misbehaves: *which step* moved the data, *who* talked to whom,
and *where* the communication budget went — broken down by the message
tags the algorithms already attach (``degree/sample``, ``mis/samples``,
…).

The trace is an ordinary :class:`~repro.obs.observer.Observer` riding
the native event hooks of :class:`~repro.mpc.cluster.MPCCluster`::

    trace = cluster.obs.add(MessageTrace())
    mpc_kcenter(cluster, k=8)
    print(trace.words_by_tag())
    cluster.obs.remove(trace)          # or trace.detach()
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.obs.events import MessageEvent
from repro.obs.observer import Observer


class MessageTrace(Observer):
    """Records every message a cluster delivers.

    Usage::

        trace = cluster.obs.add(MessageTrace())
        mpc_kcenter(cluster, k=8)
        print(trace.words_by_tag())
    """

    def __init__(self) -> None:
        self.events: List[MessageEvent] = []

    # -- hook --------------------------------------------------------------------

    def on_message(self, event: MessageEvent) -> None:
        self.events.append(event)

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def words_by_tag(self) -> Dict[str, int]:
        """Total words moved per message tag, descending."""
        acc: Dict[str, int] = defaultdict(int)
        for e in self.events:
            acc[e.tag] += e.words
        return dict(sorted(acc.items(), key=lambda kv: -kv[1]))

    def words_by_round(self) -> Dict[int, int]:
        """Total words delivered per round."""
        acc: Dict[int, int] = defaultdict(int)
        for e in self.events:
            acc[e.round_no] += e.words
        return dict(sorted(acc.items()))

    def messages_between(self, src: int, dst: int) -> List[MessageEvent]:
        """All events on one directed machine pair."""
        return [e for e in self.events if e.src == src and e.dst == dst]

    def heaviest_events(self, limit: int = 10) -> List[MessageEvent]:
        """The largest individual messages."""
        return sorted(self.events, key=lambda e: -e.words)[:limit]

    def total_words(self) -> int:
        return sum(e.words for e in self.events)
