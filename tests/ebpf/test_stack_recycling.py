"""Recycled eBPF stack frames, seen through the three engines.

The address space hands a freed ``bpf_stack`` range to the next run
instead of allocating a fresh one.  Every engine must see the same
thing: a frame is private while its run is live, a nested frame never
shares a base with its caller's, and once the run returns its frame
faults as use-after-free.
"""

import pytest

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.isa import R0, R10
from repro.errors import UseAfterFree
from repro.kernel import Kernel

from tests.conftest import watch_stack_frames

ENGINES = ("interp", "fast", "compiled")


def nested_prog():
    """Caller and subprogram each write their own stack slot; the
    caller returns its slot after the call."""
    return (Asm()
            .st_imm(8, R10, -8, 0x11)
            .call_subprog("sub")
            .ldx(8, R0, R10, -8)
            .exit_()
            .label("sub")
            .st_imm(8, R10, -8, 0x22)
            .mov64_imm(R0, 0)
            .exit_()
            .program())


@pytest.mark.parametrize("engine", ENGINES)
def test_nested_frames_never_share_a_base(engine, leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    bpf = BpfSubsystem(kernel, engine=engine)
    prog = bpf.load_program(nested_prog(), ProgType.KPROBE, "nested")
    frames = watch_stack_frames(kernel.mem)
    for __ in range(3):
        assert bpf.run_on_current_task(prog) == 0x11
    caller, callee = frames[0].base, frames[1].base
    assert caller != callee
    assert [f.base for f in frames] == [caller, callee] * 3


@pytest.mark.parametrize("engine", ENGINES)
def test_runs_reuse_one_frame_that_faults_between_runs(engine, leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    bpf = BpfSubsystem(kernel, engine=engine)
    prog = bpf.load_program(
        Asm().st_imm(8, R10, -8, 7).mov64_imm(R0, 0).exit_().program(),
        ProgType.KPROBE, "frame")
    frames = watch_stack_frames(kernel.mem)
    for __ in range(5):
        assert bpf.run_on_current_task(prog) == 0
    assert len({f.base for f in frames}) == 1
    assert all(f.freed for f in frames)
    with pytest.raises(UseAfterFree):
        kernel.mem.read(frames[-1].base + 504, 8)
