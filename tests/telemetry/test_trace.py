"""The trace, a view of the kernel's one event ring: bounding,
overwrite accounting, kind filter, limit, subscribers, JSONL."""

import pytest

from repro.kernel import Kernel, events
from repro.kernel.events import EventBus
from repro.kernel.panic import KernelLog
from repro.telemetry.trace import TraceEvent, TraceView, parse_jsonl


@pytest.fixture
def small_ring(monkeypatch):
    """Rings built while this fixture is active hold four events."""
    monkeypatch.setattr(events, "EVENT_RING_RECORDS", 4)


@pytest.fixture
def bus():
    return EventBus()


def publish(bus, i, kind="run"):
    """One traced event stamped ``i``."""
    return bus.publish(kind, source=f"bpf:p{i}", timestamp_ns=i, i=i)


def ev(i, kind="run"):
    return TraceEvent(ts_ns=i, kind=kind, framework="ebpf",
                      prog=f"p{i}", data={"i": i})


class TestBounding:
    def test_holds_up_to_capacity(self, small_ring, bus):
        trace = TraceView(bus)
        for i in range(4):
            publish(bus, i)
        assert trace.capacity == 4
        assert len(trace) == 4
        assert trace.dropped == 0
        assert trace.emitted == 4

    def test_overflow_drops_oldest(self, small_ring, bus):
        trace = TraceView(bus)
        for i in range(10):
            publish(bus, i)
        assert len(trace) == 4
        assert trace.dropped == 6
        assert trace.emitted == 10
        assert [e.ts_ns for e in trace.events()] == [6, 7, 8, 9]

    def test_log_lines_share_the_ring(self, small_ring, bus):
        """Untraced events take ring slots too: they push traced ones
        out, and only traced ones count as dropped trace events."""
        trace = TraceView(bus)
        for i in range(3):
            publish(bus, i)
        for i in range(3):
            bus.publish("log", timestamp_ns=10 + i, dmesg="line")
        assert len(bus.ring) == 4
        assert [e.ts_ns for e in trace.events()] == [2]
        assert (trace.emitted, trace.dropped) == (3, 2)

    def test_one_module_constant_sizes_the_ring(self):
        kernel = Kernel()
        assert kernel.events.ring.maxlen == events.EVENT_RING_RECORDS
        assert kernel.telemetry.trace.capacity == \
            events.EVENT_RING_RECORDS
        assert kernel.log.events is kernel.events


class TestFiltering:
    def test_kind_filter_and_limit(self, bus):
        trace = TraceView(bus)
        for i in range(6):
            publish(bus, i, kind="run" if i % 2 else "helper")
        runs = trace.events(kind="run")
        assert [e.ts_ns for e in runs] == [1, 3, 5]
        assert [e.ts_ns for e in trace.events(limit=2)] == [4, 5]
        assert [e.ts_ns
                for e in trace.events(kind="run", limit=1)] == [5]
        assert trace.events(limit=0) == []
        assert len(trace.events(limit=99)) == 6

    def test_untraced_kinds_are_not_shown(self, bus):
        trace = TraceView(bus)
        bus.publish("health", source="bpf:p", new="degraded")
        bus.publish("log", dmesg="hello")
        assert trace.events() == []
        assert trace.emitted == 0


class TestRows:
    def test_load_row_carries_the_trace_fields(self, bus):
        """A load's row names the program from its tag and shows the
        pipeline fields, not the loader's (``prog_type``,
        ``certified``)."""
        bus.publish("load", source="bpf:fw", timestamp_ns=5,
                    prog_id=1, cache_hit=True, insns=3, verify_ns=0,
                    jit_ns=0, predecode_ns=0, insns_processed=0,
                    states_explored=0, prog_type="xdp",
                    certified=False)
        row, = TraceView(bus).events()
        assert (row.ts_ns, row.kind, row.framework, row.prog) == \
            (5, "load", "ebpf", "fw")
        assert row.data == {"prog_id": 1, "cache_hit": True,
                            "insns": 3, "verify_ns": 0, "jit_ns": 0,
                            "predecode_ns": 0, "insns_processed": 0,
                            "states_explored": 0}

    def test_oops_row_names_its_source(self, bus):
        KernelLog(bus).record_oops(7, "wild write",
                                   category="page_fault",
                                   source="bpf:crash")
        row, = TraceView(bus).events()
        assert (row.framework, row.prog, row.data) == \
            ("", "bpf:crash", {"category": "page_fault"})


class TestSubscribers:
    def test_subscriber_sees_every_event(self, small_ring, bus):
        seen = []
        bus.subscribe(seen.append)
        for i in range(6):
            publish(bus, i)
        # the subscriber observed all 6 though the ring holds only 4
        assert [e.timestamp_ns for e in seen] == [0, 1, 2, 3, 4, 5]
        assert len(bus.ring) == 4


class TestJsonl:
    def test_round_trip(self, bus):
        trace = TraceView(bus)
        publish(bus, 3, kind="helper")
        KernelLog(bus).record_oops(7, "wild write",
                                   category="page_fault",
                                   source="bpf:crash")
        back = parse_jsonl(trace.to_jsonl())
        assert back == trace.events()
        assert [e.kind for e in back] == ["helper", "oops"]

    def test_empty_ring_exports_empty_text(self, bus):
        assert TraceView(bus).to_jsonl() == ""
        assert parse_jsonl("") == []

    def test_parse_skips_blank_lines(self):
        text = ev(1).to_json() + "\n\n" + ev(2).to_json() + "\n"
        assert [e.ts_ns for e in parse_jsonl(text)] == [1, 2]
