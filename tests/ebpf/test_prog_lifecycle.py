"""Program lifecycle: a loaded program lives while something refers to
it, and its last put frees it.

The references are the caller's :class:`LoadedProgram` handle and each
attachment: a hook closure (``attach_xdp``/``attach_trace``), the data
plane's ``XdpHook`` and a prog-array slot.  The subsystem's table only
indexes live programs.  Every test runs with the cyclic garbage
collector off, so a program freed here was freed by reference counting
alone, at its last put.
"""

import gc
import weakref

import pytest

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.ebpf.interpreter import COMPILE_AFTER_RUNS
from repro.ebpf.isa import R0, R1, R2, R3, R6
from repro.kernel import Kernel
from repro.net import DataPlane


@pytest.fixture(autouse=True)
def no_cycle_collector():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def kernel(leakcheck):
    booted = Kernel()
    leakcheck(booted)
    return booted


@pytest.fixture
def bpf(kernel):
    return BpfSubsystem(kernel)


def returns(value):
    return Asm().mov64_imm(R0, value).exit_().program()


def tail_caller(prog_array_fd, slot=0):
    """Tail-calls ``slot`` of the array; returns 1 if it is empty."""
    return (Asm()
            .mov64_reg(R6, R1)
            .mov64_reg(R1, R6)
            .ld_map_fd(R2, prog_array_fd)
            .mov64_imm(R3, slot)
            .call(ids.BPF_FUNC_tail_call)
            .mov64_imm(R0, 1)
            .exit_()
            .program())


def load_and_drop(bpf):
    """Load a program and return only its id and a weak reference, so
    no handle outlives the call."""
    prog = bpf.load_program(returns(2), ProgType.KPROBE, "life")
    return prog.prog_id, weakref.ref(prog)


class TestLastPut:
    def test_dropping_the_handle_frees_the_program(self, bpf):
        prog = bpf.load_program(returns(2), ProgType.KPROBE, "life")
        prog_id, ref = prog.prog_id, weakref.ref(prog)
        assert bpf.prog_by_id(prog_id) is prog
        assert bpf.all_progs() == [prog]
        del prog
        assert ref() is None
        assert bpf.prog_by_id(prog_id) is None
        assert bpf.all_progs() == []

    def test_all_progs_lists_only_live_programs_in_load_order(self, bpf):
        kept = [bpf.load_program(returns(i), ProgType.KPROBE, f"p{i}")
                for i in range(4)]
        del kept[1]
        assert [p.name for p in bpf.all_progs()] == ["p0", "p2", "p3"]

    def test_a_freed_id_is_never_reissued(self, bpf):
        first, ref = load_and_drop(bpf)
        assert ref() is None
        again = bpf.load_program(returns(2), ProgType.KPROBE, "life")
        assert again.prog_id > first
        assert bpf.prog_by_id(first) is None

    def test_a_reload_of_freed_bytes_hits_the_load_cache(self, bpf):
        __, ref = load_and_drop(bpf)
        assert ref() is None
        hits = bpf.load_cache.hits
        again = bpf.load_program(returns(2), ProgType.KPROBE, "life")
        assert again.verifier_stats.from_cache
        assert bpf.load_cache.hits == hits + 1

    def test_a_compiled_program_is_freed_too(self, bpf):
        prog = bpf.load_program(returns(2), ProgType.KPROBE, "hot")
        for __ in range(COMPILE_AFTER_RUNS + 1):
            assert bpf.run_on_current_task(prog) == 2
        assert bpf.vm.tier(prog) == "compiled"
        assert prog.compiled is not None
        prog_id, ref = prog.prog_id, weakref.ref(prog)
        del prog
        assert ref() is None
        assert bpf.prog_by_id(prog_id) is None


class TestAttachmentsHoldReferences:
    def test_attach_xdp_holds_the_program_until_detach(self, bpf,
                                                       kernel):
        prog = bpf.load_program(returns(2), ProgType.XDP, "xdp")
        prog_id, ref = prog.prog_id, weakref.ref(prog)
        bpf.attach_xdp(prog)
        del prog
        assert kernel.hooks.deliver_packet(b"pkt") == (2, ["bpf:xdp"])
        assert ref() is not None
        assert bpf.prog_by_id(prog_id) is ref()
        assert kernel.hooks.detach("xdp", "bpf:xdp")
        assert ref() is None
        assert bpf.prog_by_id(prog_id) is None

    def test_attach_trace_holds_the_program_until_detach(self, bpf,
                                                         kernel):
        prog = bpf.load_program(returns(7), ProgType.KPROBE, "probe")
        ref = weakref.ref(prog)
        bpf.attach_trace(prog)
        del prog
        assert kernel.hooks.fire_trace() == [("bpf:probe", 7)]
        assert ref() is not None
        assert kernel.hooks.detach("trace", "bpf:probe")
        assert ref() is None

    def test_data_plane_hook_holds_the_program_until_detach(self, bpf,
                                                            kernel):
        plane = DataPlane(kernel, bpf)
        nic = plane.create_nic(1, "eth0")
        prog = bpf.load_program(returns(2), ProgType.XDP, "plane")
        ref = weakref.ref(prog)
        hook = plane.attach(prog, nic)
        del prog
        nic.receive(b"pkt")
        assert plane.process_all() == 1
        assert ref() is not None
        hook.detach()
        del hook
        assert ref() is None

    def test_prog_array_slot_holds_the_program_until_delete(self, bpf):
        slots = bpf.create_map("prog_array", max_entries=1)
        target = bpf.load_program(returns(777), ProgType.KPROBE,
                                  "target")
        ref = weakref.ref(target)
        slots.set_prog(0, target)
        del target
        caller = bpf.load_program(tail_caller(slots.map_fd),
                                  ProgType.KPROBE, "caller")
        assert bpf.run_on_current_task(caller) == 777
        assert ref() is not None
        assert slots.delete((0).to_bytes(4, "little")) == 0
        assert ref() is None
        assert bpf.run_on_current_task(caller) == 1

    def test_a_tail_call_chain_keeps_no_program_alive(self, bpf):
        slots = bpf.create_map("prog_array", max_entries=2)
        middle = bpf.load_program(tail_caller(slots.map_fd, slot=1),
                                  ProgType.KPROBE, "middle")
        last = bpf.load_program(returns(777), ProgType.KPROBE, "last")
        refs = [weakref.ref(middle), weakref.ref(last)]
        slots.set_prog(0, middle)
        slots.set_prog(1, last)
        del middle, last
        caller = bpf.load_program(tail_caller(slots.map_fd),
                                  ProgType.KPROBE, "caller")
        assert bpf.run_on_current_task(caller) == 777
        for slot in (0, 1):
            assert slots.delete(slot.to_bytes(4, "little")) == 0
        assert [ref() for ref in refs] == [None, None]

    def test_prog_array_teardown_puts_its_programs(self, bpf):
        slots = bpf.create_map("prog_array", max_entries=1)
        target = bpf.load_program(returns(777), ProgType.KPROBE,
                                  "target")
        ref = weakref.ref(target)
        slots.set_prog(0, target)
        del target
        bpf.destroy_map(slots.map_fd)
        assert ref() is None
