"""Kernel log, oops and panic machinery.

The paper's §2.2 experiment ends in a kernel crash; the simulation must
make "the kernel crashed" a first-class, observable outcome.  An oops
is published on the kernel's event ring and raised as
:class:`~repro.errors.KernelOops` (or a subclass); once the kernel has
oopsed it is *tainted* and refuses further work, which is how
experiments distinguish "extension was contained" from "kernel
compromised".

Taint is *scoped*, not global: an oops attributed to one extension can
be marked **contained** after the recovery supervisor has unwound that
extension's fault domain, which clears the taint it caused — with a
full audit trail in the log.  The log holds only the oopses not yet
contained, plus a count of every oops and of every containment; taint
is computed from them, never stored.  A kernel is tainted while any
oops is open, and permanently once it has **panicked** (the hard,
unrecoverable state the supervisor escalates to when containment
itself fails or the oops budget is exhausted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.kernel.events import EventBus, KernelEvent


@dataclass
class OopsRecord:
    """An oops not yet contained, with attribution."""

    #: the oops's ordinal: how many oopses the log recorded before it
    seq: int
    timestamp_ns: int
    reason: str
    category: str
    source: str


def _oops_lines(event: KernelEvent) -> Tuple[str, ...]:
    """An oops's dmesg lines, rendered from its event."""
    return (f"BUG: {event.get('category')}: {event.get('reason')} "
            f"(source: {event.source})", "---[ end trace ]---")


class KernelLog:
    """The kernel log, a view of the kernel's event ring, plus oops
    bookkeeping.

    :meth:`log` and :meth:`record_oops` publish on the ring, and the
    views read back the held events that carry a dmesg line.  Of the
    oopses the log keeps only the open ones, which taint the kernel
    and which containment clears, and counts the rest."""

    def __init__(self, events: Optional[EventBus] = None) -> None:
        #: the ring this log is a view of (its own when it stands alone)
        self.events = events if events is not None else EventBus()
        #: the oopses not yet contained, oldest first
        self.open_oopses: List[OopsRecord] = []
        #: every oops recorded, and every oops contained
        self.oops_total = 0
        self.contained = 0
        self._last_oops: Optional[OopsRecord] = None
        self._panicked = False
        self.panic_reason: Optional[str] = None

    @property
    def tainted(self) -> bool:
        """True while any oops is open, and permanently after a
        panic."""
        return self._panicked or bool(self.open_oopses)

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
        oops = OopsRecord(self.oops_total, timestamp_ns, reason,
                          category, source)
        self.oops_total += 1
        self.open_oopses.append(oops)
        self._last_oops = oops
        self.events.publish("oops", source=source,
                            timestamp_ns=timestamp_ns, dmesg=_oops_lines,
                            category=category, reason=reason)

    def panic(self, timestamp_ns: int, reason: str, *,
              source: str = "kernel") -> None:
        """The hard stop: no containment, no recovery, taint forever."""
        self._panicked = True
        self.panic_reason = reason
        self.log(timestamp_ns,
                 f"Kernel panic - not syncing: {reason} "
                 f"(source: {source})")

    # -- scoped taint / containment -----------------------------------------

    def mark_contained(self, sources: Union[str, Iterable[str]],
                       timestamp_ns: int, reason: str) -> int:
        """Contain every open oops attributed to ``sources``, clearing
        the taint they caused.  Each containment is logged (the audit
        trail); the kernel stays tainted if oopses from *other*
        sources remain, or if it has panicked.  Returns how many
        oopses were contained."""
        if isinstance(sources, str):
            sources = {sources}
        else:
            sources = set(sources)
        contained = [o for o in self.open_oopses if o.source in sources]
        self.open_oopses = [o for o in self.open_oopses
                            if o.source not in sources]
        for oops in contained:
            self.log(timestamp_ns,
                     f"recovery: contained oops ({oops.category}: "
                     f"{oops.reason}) [{oops.source}]: {reason}")
        self.contained += len(contained)
        return len(contained)

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
        """The most recent oops, contained or not, or ``None`` if the
        kernel never oopsed."""
        return self._last_oops
