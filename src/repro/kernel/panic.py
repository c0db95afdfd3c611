"""Kernel log, oops and panic machinery.

The paper's §2.2 experiment ends in a kernel crash; the simulation must
make "the kernel crashed" a first-class, observable outcome.  An oops
is recorded in the kernel log and raised as :class:`~repro.errors.KernelOops`
(or a subclass); once the kernel has oopsed it is *tainted* and refuses
further work, which is how experiments distinguish "extension was
contained" from "kernel compromised".

Taint is *scoped*, not global: an oops attributed to one extension can
be marked **contained** after the recovery supervisor has unwound that
extension's fault domain, which clears the taint it caused — with a
full audit trail in the log.  A kernel is tainted while any
*uncontained* oops exists, and permanently once it has **panicked**
(the hard, unrecoverable state the supervisor escalates to when
containment itself fails or the oops budget is exhausted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.kernel.events import EventBus, KernelEvent


@dataclass
class OopsRecord:
    """A recorded kernel oops with attribution."""

    timestamp_ns: int
    reason: str
    category: str
    source: str
    #: set by the recovery supervisor once this oops's fault domain was
    #: unwound and verified; a contained oops no longer taints
    contained: bool = False
    #: why containment was granted (audit trail)
    contained_reason: str = ""


def _oops_lines(event: KernelEvent) -> Tuple[str, ...]:
    """An oops's dmesg lines, rendered from its event."""
    return (f"BUG: {event.get('category')}: {event.get('reason')} "
            f"(source: {event.source})", "---[ end trace ]---")


class KernelLog:
    """The kernel log, a view of the kernel's event ring, plus oops
    bookkeeping.

    :meth:`log` and :meth:`record_oops` publish on the ring, and the
    views read back the held events that carry a dmesg line;
    ``oopses`` keeps every oops, because taint and the containment
    budget are computed from it."""

    def __init__(self, events: Optional[EventBus] = None) -> None:
        #: the ring this log is a view of (its own when it stands alone)
        self.events = events if events is not None else EventBus()
        self.oopses: List[OopsRecord] = []
        self._tainted = False
        self._panicked = False
        self.panic_reason: Optional[str] = None

    @property
    def tainted(self) -> bool:
        """True while any *uncontained* oops exists, and permanently
        after a panic."""
        return self._tainted

    @property
    def panicked(self) -> bool:
        """True once the kernel went down hard (no recovery)."""
        return self._panicked

    def log(self, timestamp_ns: int, message: str) -> None:
        """Publish one kernel message."""
        self.events.publish("log", timestamp_ns=timestamp_ns,
                            dmesg=message)

    def record_oops(self, timestamp_ns: int, reason: str, *,
                    category: str, source: str) -> None:
        """Record an oops, taint the kernel, and publish it."""
        self._tainted = True
        self.oopses.append(
            OopsRecord(timestamp_ns, reason, category, source))
        self.events.publish("oops", source=source,
                            timestamp_ns=timestamp_ns, dmesg=_oops_lines,
                            category=category, reason=reason)

    def panic(self, timestamp_ns: int, reason: str, *,
              source: str = "kernel") -> None:
        """The hard stop: no containment, no recovery, taint forever."""
        self._panicked = True
        self._tainted = True
        self.panic_reason = reason
        self.log(timestamp_ns,
                 f"Kernel panic - not syncing: {reason} "
                 f"(source: {source})")

    # -- scoped taint / containment -----------------------------------------

    def uncontained_oopses(self) -> List[OopsRecord]:
        """Oopses whose fault domains were never unwound."""
        return [o for o in self.oopses if not o.contained]

    @property
    def contained_count(self) -> int:
        """How many oopses have been contained so far (budget input)."""
        return sum(1 for o in self.oopses if o.contained)

    def mark_contained(self, sources: Union[str, Iterable[str]],
                       timestamp_ns: int, reason: str) -> int:
        """Mark every uncontained oops attributed to ``sources`` as
        contained, clearing the taint they caused.  Each containment is
        logged (the audit trail); the kernel stays tainted if oopses
        from *other* sources remain, or if it has panicked.  Returns
        how many oopses were marked."""
        if isinstance(sources, str):
            sources = {sources}
        else:
            sources = set(sources)
        marked = 0
        for oops in self.oopses:
            if oops.contained or oops.source not in sources:
                continue
            oops.contained = True
            oops.contained_reason = reason
            marked += 1
            self.log(timestamp_ns,
                     f"recovery: contained oops ({oops.category}: "
                     f"{oops.reason}) [{oops.source}]: {reason}")
        if marked:
            self._tainted = self._panicked or \
                bool(self.uncontained_oopses())
        return marked

    @property
    def records(self) -> List[KernelEvent]:
        """The held events that carry a dmesg line, oldest first."""
        return [e for e in self.events.ring if e.dmesg is not None]

    def grep(self, needle: str) -> List[KernelEvent]:
        """Every held event with a dmesg line containing ``needle``."""
        return [e for e in self.records
                if any(needle in line for line in e.lines())]

    def dmesg(self) -> str:
        """Render the held log as ``[    1.234567] message`` lines."""
        return "\n".join(
            f"[{event.timestamp_ns / 1_000_000_000:12.6f}] {line}"
            for event in self.records for line in event.lines())

    def last_oops(self) -> Optional[OopsRecord]:
        """The most recent oops, or ``None`` if the kernel never
        oopsed."""
        return self.oopses[-1] if self.oopses else None
