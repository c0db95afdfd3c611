"""The kernel event ring: one record per kernel fact.

Each :class:`~repro.kernel.kernel.Kernel` owns one :class:`EventBus`,
its one store of what happened and its one way to watch it.  A
producer publishes each fact once, as one :class:`KernelEvent` of a
kind — ``log`` (a plain message), ``oops``, ``rcu_stall`` (a stall
warning), ``load``, ``recovery`` (a supervisor decision), ``health``,
``soft-reset``, and the telemetry hub's ``run``, ``helper``,
``watchdog_kill``, ``panic``, ``ringbuf_drop``, ``fault`` and
``map_op``.  The bus keeps the newest :data:`EVENT_RING_RECORDS` events
(once the ring is full, each new event overwrites the oldest, as
dmesg's ``log_buf_len`` does) and hands each event to the subscribers
of its kind.  The kernel log and the telemetry trace are views of the
ring: :meth:`~repro.kernel.panic.KernelLog.dmesg` renders the events
that carry a dmesg line, ``Telemetry.trace`` the traced kinds as JSONL.
A frequent fact (a load, an oops, a stall) carries a function that
renders its line from its fields instead of the text, so it holds no
string.

Delivery is synchronous and in subscription order, so the stream is
as deterministic as the simulation itself: the sequence of events is
a pure function of (workload, seed), which is what lets the fleet's
rollout log be bit-identical across runs.

Hot-path contract: nothing here runs per instruction or per packet
unless run stats are on; the cost of an event beyond building the
record is one ring append and one pass over the subscribers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: events one kernel keeps: once the ring is full, each new event
#: overwrites the oldest
EVENT_RING_RECORDS = 1024


@dataclass(frozen=True)
class KernelEvent:
    """One observed kernel fact, stamped on the virtual clock.  Its
    detail values follow the names in ``keys``, a tuple its bus shares
    among every event published with those names in that order."""

    # by hand: ``dataclass(slots=True)`` needs Python 3.10
    __slots__ = ("seq", "timestamp_ns", "kind", "source", "keys",
                 "values", "dmesg")

    seq: int
    timestamp_ns: int
    kind: str
    source: str
    keys: Tuple[str, ...]
    values: Tuple[object, ...]
    #: the dmesg text, or a function rendering the event's lines from
    #: its fields; None when the fact logs nothing
    dmesg: object

    @property
    def detail(self) -> Tuple[Tuple[str, object], ...]:
        """The detail fields as sorted ``(name, value)`` pairs (they
        hash stably into determinism digests)."""
        return tuple(sorted(zip(self.keys, self.values)))

    def get(self, key: str, default: object = None) -> object:
        """One detail field."""
        return self.values[self.keys.index(key)] if key in self.keys \
            else default

    def lines(self) -> Tuple[str, ...]:
        """The event's dmesg lines (none when it logs nothing)."""
        dmesg = self.dmesg
        if dmesg is None:
            return ()
        return (dmesg,) if isinstance(dmesg, str) else dmesg(self)

    def signature_bytes(self) -> bytes:
        """Stable serialization, hashed into rollout signatures."""
        return repr((self.seq, self.timestamp_ns, self.kind,
                     self.source, self.detail)).encode()


#: a subscriber: called synchronously with each matching event
EventHandler = Callable[[KernelEvent], None]


@dataclass
class Subscription:
    """One live subscription (returned by :meth:`EventBus.subscribe`;
    calling :meth:`cancel` detaches it)."""

    bus: "EventBus"
    handler: EventHandler
    kinds: Optional[Tuple[str, ...]] = None
    active: bool = True

    def cancel(self) -> None:
        """Detach; pending deliveries in the current publish still
        complete (delivery snapshots the subscriber list)."""
        self.active = False
        self.bus.prune()


class EventBus:
    """One kernel's event ring, with deterministic pub/sub over it."""

    def __init__(self, clock: Optional[object] = None) -> None:
        self.clock = clock
        #: the newest :data:`EVENT_RING_RECORDS` events, oldest first
        self.ring: Deque[KernelEvent] = deque(maxlen=EVENT_RING_RECORDS)
        #: one shared ``keys`` tuple per sequence of detail names (a pair
        #: per field grows 200 fleet nodes' held events from 16 to 28 MB)
        self._keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._subs: List[Subscription] = []
        #: events published, by kind (overwritten ones included)
        self.emitted: Dict[str, int] = {}
        self._next_seq = 0

    def subscribe(self, handler: EventHandler,
                  kinds: Optional[Tuple[str, ...]] = None,
                  ) -> Subscription:
        """Attach a handler for ``kinds`` (None = every kind).
        Handlers run synchronously, in subscription order."""
        sub = Subscription(self, handler,
                           tuple(kinds) if kinds is not None else None)
        self._subs = self._subs + [sub]
        return sub

    def prune(self) -> None:
        """Drop cancelled subscriptions."""
        self._subs = [s for s in self._subs if s.active]

    def publish(self, kind: str, source: str = "",
                timestamp_ns: Optional[int] = None,
                dmesg: object = None,
                **detail: object) -> KernelEvent:
        """Record one fact in the ring and deliver it; returns the
        event (tests assert on the return value).  ``timestamp_ns``
        defaults to the kernel clock — producers that know a better
        stamp (an oops carries its own) pass it explicitly.
        ``dmesg`` is the fact's log line, or its renderer."""
        if timestamp_ns is None:
            timestamp_ns = self.clock.now_ns if self.clock else 0
        keys = tuple(detail)
        event = KernelEvent(
            self._next_seq, timestamp_ns, kind, source,
            self._keys.setdefault(keys, keys), tuple(detail.values()),
            dmesg)
        self._next_seq += 1
        self.emitted[kind] = self.emitted.get(kind, 0) + 1
        self.ring.append(event)
        # subscribe and prune replace the list, so this is a snapshot
        for sub in self._subs:
            if sub.active and (sub.kinds is None or kind in sub.kinds):
                sub.handler(event)
        return event
