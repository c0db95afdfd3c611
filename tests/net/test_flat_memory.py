"""Flat checked memory on the data plane.

Every packet runs the program on a fresh stack frame, and the address
space recycles frames instead of indexing a new one per run, so the
number of tracked ranges after a long run equals the number after the
first chunk — on every engine, with bit-identical plane signatures.
"""

import itertools

import pytest

from repro.ebpf import BpfSubsystem, ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.programs import firewall_prog

from tests.conftest import watch_stack_frames

ENGINES = ("interp", "fast", "compiled")
CHUNK = 512
PACKETS = 20_000


def firewall_plane(engine):
    kernel = Kernel(nr_cpus=2)
    bpf = BpfSubsystem(kernel, engine=engine)
    plane = DataPlane(kernel, bpf)
    nic = plane.create_nic(1, "fw0", queue_depth=CHUNK)
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    prog = bpf.load_program(firewall_prog(stats.map_fd), ProgType.XDP,
                            "firewall")
    plane.attach(prog, nic)
    return kernel, plane, nic


def tracked(kernel):
    """Ranges the address space still resolves: live, recycled and
    quarantined."""
    return len(kernel.mem._by_base)


def test_tracked_ranges_stay_flat_on_every_engine(leakcheck):
    signatures = {}
    for engine in ENGINES:
        kernel, plane, nic = firewall_plane(engine)
        leakcheck(kernel)
        packets = LoadGen(kernel, "heavy_hitter", seed=1).packets(PACKETS)
        after_first_chunk = None
        while True:
            chunk = list(itertools.islice(packets, CHUNK))
            if not chunk:
                break
            for payload in chunk:
                nic.receive(payload)
            plane.process_all()
            plane.drain()
            if after_first_chunk is None:
                after_first_chunk = tracked(kernel)
        assert plane.processed == PACKETS, engine
        assert plane.verdicts["drop"] > 0, engine
        assert tracked(kernel) == after_first_chunk, engine
        signatures[engine] = plane.signature()
        plane.shutdown()
    assert len(set(signatures.values())) == 1, signatures


@pytest.mark.parametrize("engine", ENGINES)
def test_interleaved_smp_polls_never_share_a_frame(engine, leakcheck):
    """Two per-CPU pollers interleave at the firewall's map lookups, so
    two runs' frames are live at once; they never share a base."""
    kernel, plane, nic = firewall_plane(engine)
    leakcheck(kernel)
    frames = watch_stack_frames(kernel.mem)
    LoadGen(kernel, "heavy_hitter", seed=3).drive(nic, 400)
    assert plane.process_all_smp(seed=5) == 400
    # a second range is only handed out while the first is live
    assert len({frame.base for frame in frames}) == 2
    plane.drain()
    plane.shutdown()
