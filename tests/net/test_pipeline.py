"""The batched XDP pipeline: attachment, verdict routing, delivery."""

import pytest

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.isa import R0
from repro.errors import BpfRuntimeError
from repro.faultinject.plane import FaultAction, Probability
from repro.kernel import Kernel
from repro.net import DataPlane, XDP_DROP, XDP_PASS
from repro.net import programs as xdp_programs
from repro.net.loadgen import HEADER


def make_packet(port, src, body=b"payload!"):
    return HEADER.pack(port, src) + body


@pytest.fixture
def stack(leakcheck):
    """A kernel + subsystem + plane + one NIC, compiled tier."""
    kernel = Kernel()
    leakcheck(kernel)
    bpf = BpfSubsystem(kernel, engine="compiled")
    plane = DataPlane(kernel, bpf, ringbuf_bytes=1 << 14)
    nic = plane.create_nic(1, "test0")
    return kernel, bpf, plane, nic


class TestAttachment:
    def test_non_xdp_program_rejected(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(
            Asm().mov64_imm(R0, 0).exit_().program(),
            ProgType.KPROBE, "tracer")
        with pytest.raises(BpfRuntimeError, match="not xdp"):
            plane.attach(prog, nic)

    def test_attach_registers_on_hook_chain(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.pass_all_prog(),
                                ProgType.XDP, "passer")
        hook = plane.attach(prog, nic)
        names = [a.name for a in kernel.hooks.chain("xdp")]
        assert hook.hook_name in names
        hook.detach()
        assert hook.hook_name not in \
            [a.name for a in kernel.hooks.chain("xdp")]
        assert nic.ifindex not in plane.hooks

    def test_attach_via_subsystem(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.pass_all_prog(),
                                ProgType.XDP, "passer")
        hook = bpf.attach_nic(prog, plane, nic)
        assert plane.hooks[nic.ifindex] is hook

    def test_poll_without_attachment_raises(self, stack):
        kernel, bpf, plane, nic = stack
        with pytest.raises(BpfRuntimeError, match="no program"):
            plane.poll(nic)

    def test_empty_burst_is_refused(self, stack):
        """A burst of 0 takes no packet: draining would never end."""
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.pass_all_prog(),
                                ProgType.XDP, "passer")
        plane.attach(prog, nic)
        nic.receive(make_packet(80, 1))
        for process in (plane.process_all, plane.process_all_smp):
            with pytest.raises(ValueError, match="at least 1, got 0"):
                process(batch_size=0)


class TestVerdicts:
    def test_drop_and_pass_routed(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.port_filter_prog(),
                                ProgType.XDP, "filter")
        plane.attach(prog, nic)
        for __ in range(3):
            nic.receive(make_packet(23, 0))
        for __ in range(5):
            nic.receive(make_packet(80, 0))
        assert plane.process_all() == 8
        assert plane.verdicts["drop"] == 3
        assert plane.verdicts["pass"] == 5
        delivered = plane.drain()
        assert len(delivered) == 5
        assert all(p == make_packet(80, 0) for p in delivered)

    def test_tx_bounces_rewritten_packet(self, stack):
        kernel, bpf, plane, nic = stack
        nic.capture_tx = []
        prog = bpf.load_program(xdp_programs.rewriter_prog(),
                                ProgType.XDP, "rewriter")
        plane.attach(prog, nic)
        nic.receive(make_packet(80, 0x0A))
        plane.process_all()
        assert plane.verdicts["tx"] == 1
        assert nic.tx_packets == 1
        # source byte rewritten in kernel memory, visible at egress
        assert nic.capture_tx[0][2] == 0x0A ^ 0xFF

    def test_redirect_reaches_target_nic(self, stack):
        kernel, bpf, plane, nic = stack
        sink = plane.create_nic(2, "sink0")
        sink.capture_tx = []
        devmap = bpf.create_map("devmap", max_entries=4)
        devmap.set_target(1, sink.ifindex)
        prog = bpf.load_program(
            xdp_programs.redirect_by_source_prog(devmap.map_fd),
            ProgType.XDP, "redirect")
        plane.attach(prog, nic)
        nic.receive(make_packet(80, 1))     # slot 1 -> sink
        nic.receive(make_packet(80, 2))     # slot 2 empty -> drop
        plane.process_all()
        assert plane.verdicts["redirect"] == 1
        assert plane.verdicts["drop"] == 1
        assert sink.tx_packets == 1
        assert sink.capture_tx == [make_packet(80, 1)]

    def test_vanished_target_counts_redirect_gone(self, stack):
        kernel, bpf, plane, nic = stack
        devmap = bpf.create_map("devmap", max_entries=4)
        devmap.set_target(1, 99)            # never registered
        prog = bpf.load_program(
            xdp_programs.redirect_by_source_prog(devmap.map_fd),
            ProgType.XDP, "redirect")
        plane.attach(prog, nic)
        nic.receive(make_packet(80, 1))
        plane.process_all()
        assert plane.verdicts["redirect"] == 1
        assert nic.rx_drops["redirect_gone"] == 1

    def test_redirect_failpoint_severs_target(self, stack):
        kernel, bpf, plane, nic = stack
        sink = plane.create_nic(2, "sink0")
        devmap = bpf.create_map("devmap", max_entries=4)
        devmap.set_target(1, sink.ifindex)
        prog = bpf.load_program(
            xdp_programs.redirect_by_source_prog(devmap.map_fd),
            ProgType.XDP, "redirect")
        plane.attach(prog, nic)
        kernel.faults.enable(3)
        kernel.faults.arm("net.redirect", Probability(1.0),
                          FaultAction.err(2))
        nic.receive(make_packet(80, 1))
        plane.process_all()
        assert sink.tx_packets == 0
        assert nic.rx_drops["redirect_gone"] == 1


class TestDelivery:
    def test_pass_lands_on_polling_cpus_ring(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.pass_all_prog(),
                                ProgType.XDP, "passer")
        plane.attach(prog, nic)
        src = 3
        nic.receive(make_packet(80, src))
        plane.process_all()
        cpu = src % len(nic.queues)
        assert plane.drain(cpu) == [make_packet(80, src)]
        assert plane.drain() == []

    def test_full_ring_counts_exact_drops(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.pass_all_prog(),
                                ProgType.XDP, "passer")
        plane.attach(prog, nic)
        # all to one source -> one CPU's ring; make it tiny
        cpu = 0 % len(nic.queues)
        plane.ringbufs[cpu].capacity_bytes = 3 * 11
        for __ in range(10):
            nic.receive(make_packet(80, 0))
        plane.process_all()
        assert plane.verdicts["pass"] == 10
        assert plane.delivery_drops == 7
        assert len(plane.drain()) == 3

    def test_latency_histogram_observes_each_packet(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.port_filter_prog(),
                                ProgType.XDP, "filter")
        plane.attach(prog, nic)
        for i in range(4):
            nic.receive(make_packet(80, i))
            kernel.clock.advance(500)
        plane.process_all()
        hist = kernel.telemetry.net_latency_histogram("test0")
        assert hist.count == 4
        assert hist.total > 0
        assert hist.quantile(0.99) >= hist.quantile(0.5)


class TestSupervisedMode:
    def test_processing_survives_recovery_enabled(self, stack):
        kernel, bpf, plane, nic = stack
        kernel.enable_recovery()
        prog = bpf.load_program(xdp_programs.port_filter_prog(),
                                ProgType.XDP, "filter")
        plane.attach(prog, nic)
        for __ in range(6):
            nic.receive(make_packet(23, 0))
        for __ in range(6):
            nic.receive(make_packet(443, 1))
        assert plane.process_all() == 12
        assert plane.verdicts == {
            "aborted": 0, "drop": 6, "pass": 6, "tx": 0,
            "redirect": 0}


class TestSummary:
    def test_summary_shape_and_signature_stability(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.port_filter_prog(),
                                ProgType.XDP, "filter")
        plane.attach(prog, nic)
        nic.receive(make_packet(23, 0))
        nic.receive(make_packet(80, 1))
        plane.process_all()
        summary = plane.summary()
        assert summary["processed"] == 2
        assert summary["verdicts"]["drop"] == 1
        assert summary["nics"]["test0"]["rx_packets"] == 2
        # signature is a pure function of plane state
        assert plane.signature() == plane.signature()
        before = plane.signature()
        nic.receive(make_packet(80, 1))
        plane.process_all()
        assert plane.signature() != before

    def test_shutdown_detaches_and_frees(self, stack):
        kernel, bpf, plane, nic = stack
        prog = bpf.load_program(xdp_programs.pass_all_prog(),
                                ProgType.XDP, "passer")
        plane.attach(prog, nic)
        plane.shutdown()
        assert not plane.hooks
        assert not kernel.hooks.chain("xdp")

    def test_duplicate_ifindex_rejected(self, stack):
        kernel, bpf, plane, nic = stack
        with pytest.raises(BpfRuntimeError, match="already"):
            plane.create_nic(1, "dup0")
