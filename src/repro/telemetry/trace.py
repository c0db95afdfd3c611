"""The structured trace: a view of the kernel's event ring.

Models the kernel's tracing ring buffers (``trace_pipe``, the BPF
ringbuf used by observability tools) but stores nothing itself: the
trace is the traced kinds of the kernel's one event ring
(:mod:`repro.kernel.events`), rendered as :class:`TraceEvent` rows.
When the ring is full the *oldest* event is overwritten, and a traced
one counts as dropped — readers that fall behind lose history, never
the writer.  JSONL export/import round-trips every field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.stats import split_tag

#: traced kinds whose source is a ``framework:name`` program tag
PROGRAM_KINDS = ("load", "run", "helper", "watchdog_kill", "panic")
#: the kinds the trace shows
TRACED = PROGRAM_KINDS + ("oops", "ringbuf_drop", "recovery", "fault",
                          "map_op")
#: the fields a row shows where the event carries more: a load's
#: pipeline fields, not the loader's own; an oops's category
FIELDS = {"load": ("prog_id", "cache_hit", "insns", "verify_ns",
                   "jit_ns", "predecode_ns", "insns_processed",
                   "states_explored"),
          "oops": ("category",)}


@dataclass
class TraceEvent:
    """One structured telemetry event (a trace row)."""

    ts_ns: int
    kind: str
    framework: str = ""
    prog: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One JSONL line for this event."""
        return json.dumps({"ts_ns": self.ts_ns, "kind": self.kind,
                           "framework": self.framework,
                           "prog": self.prog, "data": self.data},
                          sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        """Parse one JSONL line back into an event."""
        raw = json.loads(line)
        return TraceEvent(ts_ns=raw["ts_ns"], kind=raw["kind"],
                          framework=raw.get("framework", ""),
                          prog=raw.get("prog", ""),
                          data=raw.get("data", {}))


def trace_row(event: object) -> TraceEvent:
    """Render one traced kernel event as its trace row."""
    framework, prog = split_tag(event.source) \
        if event.kind in PROGRAM_KINDS else ("", event.source)
    data = dict(event.detail)
    if event.kind in FIELDS:
        data = {name: data[name] for name in FIELDS[event.kind]}
    return TraceEvent(event.timestamp_ns, event.kind, framework, prog,
                      data)


class TraceView:
    """The trace: the traced kinds of one kernel's event ring."""

    def __init__(self, events: object) -> None:
        self._events = events
        #: the ring's size, which every kind shares
        self.capacity = events.ring.maxlen

    def __len__(self) -> int:
        return sum(1 for e in self._events.ring if e.kind in TRACED)

    @property
    def emitted(self) -> int:
        """Traced events ever published (dropped ones included)."""
        return sum(self._events.emitted.get(kind, 0) for kind in TRACED)

    @property
    def dropped(self) -> int:
        """Traced events the ring has overwritten."""
        return self.emitted - len(self)

    def events(self, kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[TraceEvent]:
        """Events currently held, oldest first, optionally filtered
        by ``kind`` and truncated to the last ``limit``."""
        held = [e for e in self._events.ring
                if e.kind in TRACED and (kind is None or e.kind == kind)]
        if limit is not None:
            held = held[len(held) - min(limit, len(held)):]
        return [trace_row(event) for event in held]

    def to_jsonl(self) -> str:
        """The held events as JSON-lines text (trailing newline when
        non-empty)."""
        lines = [event.to_json() for event in self.events()]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_jsonl(text: str) -> List[TraceEvent]:
    """Parse JSONL text (as produced by :meth:`TraceView.to_jsonl`)
    back into events."""
    return [TraceEvent.from_json(line)
            for line in text.splitlines() if line.strip()]
