"""The simulated NIC: packet ingress, steering, per-CPU RX queues.

Frames live in real simulated kernel memory so XDP programs read and
write packet bytes through checked loads/stores, but — unlike
:meth:`~repro.kernel.kernel.Kernel.create_skb`, which kmallocs per
packet — every RX queue owns one preallocated, endlessly reused
:class:`XdpFrame`, as real drivers reuse page-pool pages.  Refilling
it is two checked writes.  A per-packet skb would cost two kmallocs
and two kfrees, and each freed skb would pass through the address
space's quarantine, pushing out older freed ranges that could still
catch a use-after-free.

Failpoints: ``net.nic.rx`` fires on every packet at the wire
(errno = the NIC silently eats it), ``net.queue.enqueue`` at RX-ring
admission (errno = counted as a queue overflow).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import KernelOops
from repro.kernel.kernel import Kernel

#: default link MTU: generous for the repo's tiny header+payload format
DEFAULT_MTU = 256

#: byte index used for RX steering (the canonical packet format puts
#: the source id at offset 2: ``<HB`` = dst_port, src_id)
DEFAULT_STEER_OFFSET = 2

#: XDP context layout (matches ``SkBuff.LAYOUT`` / ``_XDP_FIELDS``):
#: len(4) protocol(4) data(8) data_end(8) mark(4) + 4 pad
_CTX_PACK = struct.Struct("<IIQQI4x")
_CTX_SIZE = 32


class XdpFrame:
    """One reusable packet frame: a 32-byte XDP context plus an
    MTU-sized data area, both in simulated kernel memory.

    :meth:`fill` rewrites the data bytes and the whole context in two
    checked writes, so a frame serves every packet its queue ever
    processes without allocating."""

    __slots__ = ("kernel", "ctx_alloc", "data_alloc", "mtu", "rx_ns")

    def __init__(self, kernel: Kernel, mtu: int = DEFAULT_MTU) -> None:
        self.kernel = kernel
        self.mtu = mtu
        self.ctx_alloc = kernel.mem.kmalloc(
            _CTX_SIZE, type_name="xdp_ctx", owner="net")
        self.data_alloc = kernel.mem.kmalloc(
            mtu, type_name="xdp_frame", owner="net")
        #: virtual receive timestamp of the packet currently loaded
        self.rx_ns = 0

    @property
    def ctx_addr(self) -> int:
        """Kernel address of the XDP context (what the program gets)."""
        return self.ctx_alloc.base

    def fill(self, payload: bytes, rx_ns: int,
             protocol: int = 0x0800) -> None:
        """Load one packet into the frame (payload must fit the MTU)."""
        data = self.data_alloc.base
        self.kernel.mem.write(data, payload)
        self.kernel.mem.write(self.ctx_alloc.base, _CTX_PACK.pack(
            len(payload), protocol, data, data + len(payload), 0))
        self.rx_ns = rx_ns

    def payload(self) -> bytes:
        """The frame's current packet bytes, read back from kernel
        memory — reflecting any rewrites the program made."""
        length = int.from_bytes(
            self.kernel.mem.read(self.ctx_alloc.base, 4), "little")
        return self.kernel.mem.read(self.data_alloc.base, length)

    def free(self) -> None:
        """Release the frame's backing allocations (NIC teardown)."""
        if not self.ctx_alloc.freed:
            self.kernel.mem.kfree(self.ctx_alloc)
        if not self.data_alloc.freed:
            self.kernel.mem.kfree(self.data_alloc)


class RxQueue:
    """One per-CPU RX ring: a bounded queue of raw payloads awaiting a
    poll, plus the queue's reusable :class:`XdpFrame`."""

    def __init__(self, kernel: Kernel, cpu_id: int, depth: int,
                 mtu: int) -> None:
        self.kernel = kernel
        self.cpu_id = cpu_id
        self.depth = depth
        #: (payload, rx_ns) pairs; Python-side until the poll fills
        #: the frame, mirroring how a real ring holds DMA descriptors
        self.pending: Deque[Tuple[bytes, int]] = deque()
        self.frame = XdpFrame(kernel, mtu)
        #: packets admitted to this ring since creation
        self.enqueued = 0
        #: packets refused (ring full or injected overflow)
        self.overflows = 0

    def enqueue(self, payload: bytes, rx_ns: int) -> bool:
        """Admit one packet; False means it was dropped as overflow."""
        faults = self.kernel.faults
        if faults.armed:
            action = faults.check("net.queue.enqueue")
            if action is not None and action.kind != "delay":
                if action.kind == "panic":
                    self.kernel.log.record_oops(
                        self.kernel.clock.now_ns,
                        f"injected panic at RX queue cpu{self.cpu_id}",
                        category="fault-injection", source="net-rx")
                    raise KernelOops(
                        f"injected panic at RX queue cpu{self.cpu_id}",
                        source="net-rx")
                self.overflows += 1
                return False
        if len(self.pending) >= self.depth:
            self.overflows += 1
            return False
        self.pending.append((payload, rx_ns))
        self.enqueued += 1
        return True

    def __len__(self) -> int:
        return len(self.pending)


class SimulatedNic:
    """A software NIC: ingress steering into per-CPU RX queues plus a
    TX side with counters and optional capture.

    Steering hashes the byte at ``steer_offset`` (the source id in the
    repo's canonical packet format) across the queues — RSS-style, so
    packets from one source always land on one queue and per-source
    ordering is preserved end to end.  Packets shorter than the steer
    offset land on queue 0."""

    def __init__(self, kernel: Kernel, ifindex: int,
                 name: Optional[str] = None, *,
                 nqueues: Optional[int] = None,
                 queue_depth: int = 512, mtu: int = DEFAULT_MTU,
                 steer_offset: int = DEFAULT_STEER_OFFSET) -> None:
        if ifindex <= 0:
            raise ValueError(f"ifindex must be positive: {ifindex}")
        self.kernel = kernel
        self.ifindex = ifindex
        self.name = name or f"veth{ifindex}"
        self.mtu = mtu
        self.steer_offset = steer_offset
        nqueues = nqueues or len(kernel.cpus)
        if not 0 < nqueues <= len(kernel.cpus):
            raise ValueError(
                f"nqueues {nqueues} outside 1..{len(kernel.cpus)}")
        self.queues: List[RxQueue] = [
            RxQueue(kernel, cpu, queue_depth, mtu)
            for cpu in range(nqueues)]
        #: ingress/egress counters (drop *reasons* feed telemetry too)
        self.rx_packets = 0
        self.rx_drops: Dict[str, int] = {}
        self.tx_packets = 0
        self.tx_bytes = 0
        #: when set (a list), every transmitted payload is appended —
        #: tests use it to assert TX/REDIRECT delivery byte-for-byte
        self.capture_tx: Optional[List[bytes]] = None

    def _drop(self, reason: str) -> None:
        self.rx_drops[reason] = self.rx_drops.get(reason, 0) + 1
        self.kernel.telemetry.record_net_rx_drop(self.name, reason)

    def receive(self, payload: bytes) -> bool:
        """One packet off the wire; False when it was dropped before
        any program could see it (NIC drop, oversize, ring overflow)."""
        faults = self.kernel.faults
        if faults.armed:
            action = faults.check("net.nic.rx")
            if action is not None and action.kind != "delay":
                if action.kind == "panic":
                    self.kernel.log.record_oops(
                        self.kernel.clock.now_ns,
                        f"injected panic at NIC {self.name} ingress",
                        category="fault-injection", source="net-rx")
                    raise KernelOops(
                        f"injected panic at NIC {self.name} ingress",
                        source="net-rx")
                self._drop("nic_drop")
                return False
        if len(payload) > self.mtu:
            self._drop("oversize")
            return False
        queue_id = (payload[self.steer_offset] % len(self.queues)
                    if len(payload) > self.steer_offset else 0)
        if not self.queues[queue_id].enqueue(
                payload, self.kernel.clock.now_ns):
            self._drop("queue_overflow")
            return False
        self.rx_packets += 1
        return True

    def transmit(self, payload: bytes) -> None:
        """Egress one packet (a TX verdict, or a redirect landing
        here): counted, optionally captured, then gone."""
        self.tx_packets += 1
        self.tx_bytes += len(payload)
        if self.capture_tx is not None:
            self.capture_tx.append(payload)

    def pending(self) -> int:
        """Packets sitting in RX rings awaiting a poll."""
        return sum(len(q) for q in self.queues)

    def shutdown(self) -> None:
        """Free every queue's frame (device teardown)."""
        for queue in self.queues:
            queue.frame.free()
