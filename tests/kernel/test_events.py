"""The kernel event stream: pub/sub semantics and the kernel's
built-in producers (oops, load, soft-reset, telemetry)."""

import dataclasses

import pytest

from repro.ebpf.bugs import BugConfig
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import EventBus, Kernel
from repro.net.programs import pass_all_prog


class TestEventBus:
    def test_publish_delivers_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.kind)))
        bus.subscribe(lambda e: seen.append(("b", e.kind)))
        bus.publish("ping", source="t")
        assert seen == [("a", "ping"), ("b", "ping")]

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind), kinds=("x",))
        bus.publish("x")
        bus.publish("y")
        assert seen == ["x"]
        assert bus.emitted == {"x": 1, "y": 1}

    def test_cancel_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(lambda e: seen.append(e.kind))
        bus.publish("one")
        sub.cancel()
        bus.publish("two")
        assert seen == ["one"]

    def test_events_are_sequenced_and_stable(self):
        bus = EventBus()
        a = bus.publish("k", source="s", z=1, a=2)
        b = bus.publish("k")
        assert (a.seq, b.seq) == (0, 1)
        assert a.detail == (("a", 2), ("z", 1))  # sorted pairs
        assert a.get("z") == 1
        assert a.signature_bytes() == a.signature_bytes()

    def test_events_are_compact_and_frozen(self):
        # the ring holds thousands of these per kernel: no per-event
        # dict, and one names tuple shared by every event with them
        bus = EventBus()
        a = bus.publish("k", z=1, a=2)
        b = bus.publish("k", z=3, a=4)
        assert not hasattr(a, "__dict__")
        assert a.keys is b.keys
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.seq = 5


class TestKernelProducers:
    def test_oops_is_published_with_its_own_timestamp(self):
        kernel = Kernel()
        seen = []
        kernel.events.subscribe(seen.append, kinds=("oops",))
        kernel.clock.advance(500)
        kernel.log.record_oops(123, "boom", category="test-oops",
                               source="bpf:t")
        assert len(seen) == 1
        assert seen[0].timestamp_ns == 123
        assert seen[0].source == "bpf:t"
        assert seen[0].get("category") == "test-oops"

    def test_oops_event_still_feeds_telemetry(self):
        """Telemetry subscribes first: counters update before any
        external observer runs."""
        kernel = Kernel()
        kernel.log.record_oops(0, "boom", category="c", source="s")
        family = kernel.telemetry.registry.get("repro_oops_total")
        assert family.labels("c", "s").value == 1

    def test_load_is_published(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        seen = []
        kernel.events.subscribe(seen.append, kinds=("load",))
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        prog = bpf.load_program(pass_all_prog(), ProgType.XDP, "p")
        assert len(seen) == 1
        assert seen[0].get("prog_id") == prog.prog_id
        assert seen[0].source == "bpf:p"

    def test_soft_reset_is_published(self):
        kernel = Kernel()
        seen = []
        kernel.events.subscribe(seen.append, kinds=("soft-reset",))
        kernel.log.record_oops(0, "boom", category="c", source="bpf:x")
        kernel.soft_reset(("bpf:x",), reason="test")
        assert len(seen) == 1
        assert seen[0].get("cleared") == 1
        assert seen[0].get("sources") == ("bpf:x",)
