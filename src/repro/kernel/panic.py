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

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Union

#: records the kernel log keeps, like dmesg's ``log_buf_len``: once it
#: is full, each new record overwrites the oldest
LOG_BUF_RECORDS = 1024


@dataclass
class LogRecord:
    """One line of kernel log output."""

    timestamp_ns: int
    level: str
    message: str

    def render(self) -> str:
        """Format like a dmesg line: ``[    1.234567] message``."""
        seconds = self.timestamp_ns / 1_000_000_000
        return f"[{seconds:12.6f}] {self.message}"


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


class KernelLog:
    """A fixed-size kernel message ring plus oops bookkeeping.

    ``records`` keeps the latest :data:`LOG_BUF_RECORDS` lines, as the
    kernel's ring buffer does; ``oopses`` keeps every oops, because
    taint and the containment budget are computed from it."""

    def __init__(self) -> None:
        self.records: Deque[LogRecord] = deque(maxlen=LOG_BUF_RECORDS)
        self.oopses: List[OopsRecord] = []
        self._tainted = False
        self._panicked = False
        self.panic_reason: Optional[str] = None
        #: invoked with each :class:`OopsRecord` as it is recorded;
        #: the kernel wires this into the telemetry hub
        self.on_oops: Optional[Callable[[OopsRecord], None]] = None

    @property
    def tainted(self) -> bool:
        """True while any *uncontained* oops exists, and permanently
        after a panic."""
        return self._tainted

    @property
    def panicked(self) -> bool:
        """True once the kernel went down hard (no recovery)."""
        return self._panicked

    def log(self, timestamp_ns: int, message: str,
            level: str = "info") -> None:
        """Append a log record (overwriting the oldest when full)."""
        self.records.append(LogRecord(timestamp_ns, level, message))

    def record_oops(self, timestamp_ns: int, reason: str, *,
                    category: str, source: str) -> None:
        """Record an oops and taint the kernel."""
        self._tainted = True
        oops = OopsRecord(timestamp_ns, reason, category, source)
        self.oopses.append(oops)
        if self.on_oops is not None:
            self.on_oops(oops)
        self.log(timestamp_ns,
                 f"BUG: {category}: {reason} (source: {source})",
                 level="emerg")
        self.log(timestamp_ns, "---[ end trace ]---", level="emerg")

    def panic(self, timestamp_ns: int, reason: str, *,
              source: str = "kernel") -> None:
        """The hard stop: no containment, no recovery, taint forever."""
        self._panicked = True
        self._tainted = True
        self.panic_reason = reason
        self.log(timestamp_ns,
                 f"Kernel panic - not syncing: {reason} "
                 f"(source: {source})", level="emerg")

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
                     f"{oops.reason}) [{oops.source}]: {reason}",
                     level="warn")
        if marked:
            self._tainted = self._panicked or \
                bool(self.uncontained_oopses())
        return marked

    def grep(self, needle: str) -> List[LogRecord]:
        """Return every record still in the ring containing
        ``needle``."""
        return [r for r in self.records if needle in r.message]

    def dmesg(self) -> str:
        """Render the ring as text."""
        return "\n".join(r.render() for r in self.records)

    def last_oops(self) -> Optional[OopsRecord]:
        """The most recent oops, or ``None`` if the kernel never
        oopsed."""
        return self.oopses[-1] if self.oopses else None
