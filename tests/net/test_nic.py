"""The simulated NIC: frames, steering, queues, ingress failpoints."""

import pytest

from repro.errors import KernelOops
from repro.faultinject.plane import FaultAction, NthHit, Probability
from repro.kernel import Kernel
from repro.net.nic import RxQueue, SimulatedNic, XdpFrame


def make_packet(port, src, body=b"x" * 8):
    import struct
    return struct.pack("<HB", port, src) + body


class TestXdpFrame:
    def test_fill_writes_ctx_and_data(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        frame = XdpFrame(kernel, mtu=64)
        frame.fill(b"hello", rx_ns=123)
        ctx = kernel.mem.read(frame.ctx_addr, 32)
        assert int.from_bytes(ctx[0:4], "little") == 5
        data = int.from_bytes(ctx[8:16], "little")
        data_end = int.from_bytes(ctx[16:24], "little")
        assert data == frame.data_alloc.base
        assert data_end - data == 5
        assert frame.payload() == b"hello"
        assert frame.rx_ns == 123
        frame.free()

    def test_reuse_never_allocates(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        frame = XdpFrame(kernel, mtu=64)
        allocs_before = len(kernel.mem.live_allocations())
        for i in range(50):
            frame.fill(bytes([i]) * (i % 60 + 1), rx_ns=i)
        assert len(kernel.mem.live_allocations()) == allocs_before
        assert frame.payload() == bytes([49]) * 50
        frame.free()


class TestSteering:
    def test_same_source_same_queue(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, nqueues=4)
        for __ in range(12):
            assert nic.receive(make_packet(80, 5))
        populated = [q for q in nic.queues if len(q)]
        assert len(populated) == 1
        assert populated[0].cpu_id == 5 % 4
        nic.shutdown()

    def test_per_source_order_preserved(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, nqueues=2)
        for i in range(6):
            nic.receive(make_packet(80, 3, bytes([i])))
        queue = nic.queues[3 % 2]
        bodies = [payload[3] for payload, __ in queue.pending]
        assert bodies == sorted(bodies)
        nic.shutdown()

    def test_short_packet_lands_on_queue_zero(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, nqueues=4)
        assert nic.receive(b"\x01")
        assert len(nic.queues[0]) == 1
        nic.shutdown()


class TestDrops:
    def test_oversize_dropped_and_counted(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, mtu=16)
        assert not nic.receive(b"y" * 17)
        assert nic.rx_drops == {"oversize": 1}
        assert nic.rx_packets == 0
        nic.shutdown()

    def test_queue_overflow_dropped_and_counted(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, nqueues=1, queue_depth=3)
        results = [nic.receive(make_packet(80, 0)) for __ in range(5)]
        assert results == [True] * 3 + [False] * 2
        assert nic.rx_drops["queue_overflow"] == 2
        assert nic.queues[0].overflows == 2
        nic.shutdown()

    def test_nic_rx_failpoint_drops(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1)
        kernel.faults.enable(7)
        kernel.faults.arm("net.nic.rx", NthHit(2),
                          FaultAction.err(12))
        assert nic.receive(make_packet(80, 0))
        assert not nic.receive(make_packet(80, 0))
        assert nic.rx_drops == {"nic_drop": 1}
        nic.shutdown()

    def test_queue_enqueue_failpoint_counts_overflow(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, nqueues=1)
        kernel.faults.enable(7)
        kernel.faults.arm("net.queue.enqueue", Probability(1.0),
                          FaultAction.err(28))
        assert not nic.receive(make_packet(80, 0))
        assert nic.rx_drops == {"queue_overflow": 1}
        nic.shutdown()

    @pytest.mark.dirty_kernel
    def test_rx_panic_goes_through_official_path(self):
        kernel = Kernel()
        nic = SimulatedNic(kernel, 1)
        kernel.faults.enable(7)
        kernel.faults.arm("net.nic.rx", Probability(1.0),
                          FaultAction.panic())
        with pytest.raises(KernelOops):
            nic.receive(make_packet(80, 0))
        assert kernel.log.open_oopses
        nic.shutdown()


class TestCounters:
    def test_rx_tx_accounting(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1)
        nic.receive(make_packet(80, 0))
        nic.capture_tx = []
        nic.transmit(b"abcd")
        assert nic.rx_packets == 1
        assert nic.tx_packets == 1
        assert nic.tx_bytes == 4
        assert nic.capture_tx == [b"abcd"]
        assert nic.pending() == 1
        nic.shutdown()

    def test_telemetry_sees_rx_drops(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        nic = SimulatedNic(kernel, 1, mtu=4, name="tel0")
        nic.receive(b"toolong")
        family = kernel.telemetry.registry.get(
            "repro_net_rx_drops_total")
        assert family.labels("tel0", "oversize").value == 1
        nic.shutdown()


class TestValidation:
    def test_bad_ifindex_rejected(self):
        with pytest.raises(ValueError):
            SimulatedNic(Kernel(), 0)

    def test_bad_queue_count_rejected(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            SimulatedNic(kernel, 1, nqueues=len(kernel.cpus) + 1)

    def test_rxqueue_len(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        queue = RxQueue(kernel, 0, depth=4, mtu=32)
        assert len(queue) == 0
        queue.enqueue(b"p", 0)
        assert len(queue) == 1
        queue.frame.free()
