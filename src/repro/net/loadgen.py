"""Deterministic seeded traffic generation on the virtual clock.

A :class:`LoadGen` turns a ``(profile, seed)`` pair into an exactly
reproducible packet stream: same profile, same seed, same packets with
the same virtual inter-arrival gaps, every run, on every engine tier.
That determinism is what lets the differential suite demand identical
verdict counts across interp/fast/compiled and the bench demand
bit-identical signatures across repeats.

Packets follow the repo's canonical format — ``<HB`` little-endian
dst_port, src_id, then payload — which is also what the steering byte
in :mod:`repro.net.nic` and every canned program in
:mod:`repro.net.programs` assume.

Profiles (``PROFILES``):

* ``uniform`` — fixed inter-arrival gap, sources and ports uniform.
* ``bursty`` — back-to-back bursts separated by long idle gaps.
* ``adversarial`` — malformed traffic: truncated headers, oversize
  frames, junk bytes, a bias toward the blocked port.  Programs must
  bounds-check their way through it.
* ``heavy_hitter`` — one elephant source sends ~70% of the packets,
  the mice share the rest.
"""

from __future__ import annotations

import struct
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.kernel.kernel import Kernel
from repro.net.nic import SimulatedNic

#: the named traffic profiles
PROFILES = ("uniform", "bursty", "adversarial", "heavy_hitter")

#: canonical header: dst_port (u16 le) + src_id (u8)
HEADER = struct.Struct("<HB")

#: the firewall examples' well-known ports
PORTS = (53, 80, 123, 443, 8080)
BLOCKED_PORT = 23

#: virtual inter-arrival gap at line rate (ns)
LINE_GAP_NS = 120

#: distinct source ids (the header's src_id byte)
SOURCES = 8

#: the heavy_hitter profile's elephant source id
ELEPHANT = 3

#: bytes of payload after the header
PAYLOAD_BYTES = 29


class LoadGen:
    """A seeded packet source driving one NIC on the virtual clock."""

    def __init__(self, kernel: Kernel, profile: str = "uniform", *,
                 seed: int = 0) -> None:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; "
                             f"expected one of {PROFILES}")
        self.kernel = kernel
        self.profile = profile
        self.seed = seed
        self._rng = Random(seed)
        #: a small pool of payload bodies, reused round-robin so a
        #: million-packet run does not build a million byte strings
        self._bodies: List[bytes] = [
            bytes(self._rng.randrange(256)
                  for __ in range(PAYLOAD_BYTES))
            for __ in range(32)]
        #: packets emitted so far
        self.generated = 0
        #: remaining packets in the current burst (bursty profile)
        self._burst_left = 0

    # -- per-profile emission ----------------------------------------------------

    def _packet_uniform(self, rng: Random) -> Tuple[bytes, int]:
        port = rng.choice(PORTS) if rng.random() >= 0.125 \
            else BLOCKED_PORT
        src = rng.randrange(SOURCES)
        body = self._bodies[self.generated % len(self._bodies)]
        return HEADER.pack(port, src) + body, LINE_GAP_NS

    def _packet_bursty(self, rng: Random) -> Tuple[bytes, int]:
        if self._burst_left <= 0:
            self._burst_left = rng.randrange(8, 65)
            gap = LINE_GAP_NS * rng.randrange(50, 400)
        else:
            gap = LINE_GAP_NS // 4
        self._burst_left -= 1
        packet, __ = self._packet_uniform(rng)
        return packet, gap

    def _packet_adversarial(self, rng: Random) -> Tuple[bytes, int]:
        shape = rng.random()
        if shape < 0.15:
            # truncated: shorter than the 3-byte header
            packet = bytes(rng.randrange(256)
                           for __ in range(rng.randrange(3)))
        elif shape < 0.25:
            # oversize: the NIC must refuse it at the MTU
            packet = HEADER.pack(BLOCKED_PORT,
                                 rng.randrange(SOURCES)) \
                + bytes(512)
        elif shape < 0.55:
            # well-formed but aimed at the blocked port
            src = rng.randrange(SOURCES)
            body = self._bodies[self.generated % len(self._bodies)]
            packet = HEADER.pack(BLOCKED_PORT, src) + body
        else:
            packet, __ = self._packet_uniform(rng)
        return packet, LINE_GAP_NS

    def _packet_heavy_hitter(self, rng: Random) -> Tuple[bytes, int]:
        if rng.random() < 0.7:
            src = ELEPHANT
        else:
            src = rng.randrange(SOURCES)
        port = rng.choice(PORTS) if rng.random() >= 0.125 \
            else BLOCKED_PORT
        body = self._bodies[self.generated % len(self._bodies)]
        return HEADER.pack(port, src) + body, LINE_GAP_NS

    def packets(self, count: int) -> Iterator[bytes]:
        """Yield ``count`` packets, advancing the virtual clock by
        each packet's inter-arrival gap before yielding it."""
        emit = getattr(self, f"_packet_{self.profile}")
        clock = self.kernel.clock
        for __ in range(count):
            packet, gap = emit(self._rng)
            clock.advance(gap)
            self.generated += 1
            yield packet

    # -- driving a NIC -----------------------------------------------------------

    def drive(self, nic: SimulatedNic, count: int, *,
              plane: Optional[object] = None,
              poll_every: int = 64,
              batch_size: int = 64) -> Dict[str, int]:
        """Offer ``count`` packets to ``nic``, interleaving NAPI polls
        every ``poll_every`` arrivals when a plane is given (otherwise
        packets just accumulate in the RX rings).  Returns offered /
        accepted / processed counts."""
        accepted = 0
        processed = 0
        since_poll = 0
        for packet in self.packets(count):
            if nic.receive(packet):
                accepted += 1
            since_poll += 1
            if plane is not None and since_poll >= poll_every:
                processed += plane.poll(nic, batch_size)
                since_poll = 0
        if plane is not None:
            processed += plane.process_all(batch_size)
        return {"offered": count, "accepted": accepted,
                "processed": processed}
