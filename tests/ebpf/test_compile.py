"""Unit tests for the compiled execution tier.

The differential suites prove the compiled tier *behaves* like the
other engines; these tests pin the machinery itself — block splitting,
frame entry points, the VM as the one compile site, artifact sharing
through the load cache, and the compile for hand-built programs.
"""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.compile import compile_program, render_source
from repro.ebpf.helpers import ids
from repro.ebpf.interpreter import BpfVm, COMPILE_AFTER_RUNS
from repro.ebpf.isa import R0, R1, R2, R3, R4
from repro.ebpf.loader import BpfSubsystem, LoadedProgram
from repro.ebpf.predecode import predecode
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.analyzer import VerifierStats
from repro.kernel import Kernel


def _branchy_program():
    return (Asm()
            .mov64_imm(R0, 0)
            .mov64_imm(R2, 4)
            .label("loop")
            .alu64_reg("add", R0, R2)
            .alu64_imm("sub", R2, 1)
            .jmp_imm("jne", R2, 0, "loop")
            .exit_()
            .program())


class TestBlockStructure:
    def test_leaders_are_entry_points(self):
        compiled = compile_program(predecode(_branchy_program()))
        # program start, the loop head, the conditional fallthrough
        assert set(compiled.entry_blocks) == {0, 2, 5}
        assert compiled.entry_blocks[0] == 0
        assert compiled.n_blocks == 3
        assert compiled.n_insns == 6

    def test_subprog_and_callback_targets_are_leaders(self):
        insns = (Asm()
                 .mov64_imm(R1, 3)
                 .ld_func(R2, "body")
                 .mov64_imm(R3, 0)
                 .mov64_imm(R4, 0)
                 .call(ids.BPF_FUNC_loop)
                 .call_subprog("sub")
                 .exit_()
                 .label("sub")
                 .mov64_reg(R0, R1)
                 .exit_()
                 .label("body")
                 .mov64_imm(R0, 0)
                 .exit_()
                 .program())
        compiled = compile_program(predecode(insns))
        # the bpf_loop callback and the subprogram must be enterable
        # as frames, not just jump targets (ld_func occupies 2 slots)
        assert 8 in compiled.entry_blocks   # "sub"
        assert 10 in compiled.entry_blocks  # "body"

    def test_source_is_inspectable(self):
        source, entry_blocks = render_source(
            predecode(_branchy_program()))
        assert "def _frame(" in source
        assert "pending" in source
        assert entry_blocks == {0: 0, 2: 1, 5: 2}

    def test_empty_program_compiles_to_pc_error(self):
        compiled = compile_program(predecode([]))
        assert compiled.entry_blocks == {0: 0}
        assert "pc out of range: 0" in compiled.source


class TestLoaderIntegration:
    def test_compiles_on_first_run(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="compiled")
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "c1")
        # loading never compiles; the VM does, on the first run
        assert prog.compiled is None
        assert bpf.vm.compiles == 0
        assert bpf.run_on_current_task(prog) == 10
        assert prog.compiled is not None
        assert bpf.vm.compiles == 1

    def test_reload_hits_compile_cache(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="compiled")
        first = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                 "c1")
        bpf.run_on_current_task(first)
        second = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                  "c2")
        assert second.compiled is first.compiled
        assert bpf.run_on_current_task(second) == 10
        assert bpf.vm.compiles == 1

    def test_backfill_when_cached_under_other_engine(self):
        # the first load runs on a VM pinned to fast, so its cache
        # entry holds no compiled function; a compiled-tier VM sharing
        # the cache compiles once on first run and backfills the entry
        kernel = Kernel()
        fast = BpfSubsystem(kernel, engine="fast")
        fast.run_on_current_task(
            fast.load_program(_branchy_program(), ProgType.KPROBE, "c1"))
        compiled = BpfSubsystem(kernel, engine="compiled")
        compiled.load_cache = fast.load_cache
        prog = compiled.load_program(_branchy_program(),
                                     ProgType.KPROBE, "c2")
        assert prog.compiled is None
        compiled.run_on_current_task(prog)
        assert compiled.vm.compiles == 1
        reload = fast.load_program(_branchy_program(), ProgType.KPROBE,
                                   "c3")
        assert reload.compiled is prog.compiled
        assert fast.vm.compiles == 0

    def test_compile_ns_recorded_in_telemetry(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "c1")
        row = kernel.telemetry.prog("ebpf", "c1")
        assert row.loads == 1
        for __ in range(COMPILE_AFTER_RUNS):
            bpf.run_on_current_task(prog)
        assert row.compile_ns == 0
        bpf.run_on_current_task(prog)
        assert row.compile_ns > 0
        assert "compile_ns" in row.as_dict()

    def test_other_engines_skip_compilation(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="fast")
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "c1")
        for __ in range(COMPILE_AFTER_RUNS + 1):
            bpf.run_on_current_task(prog)
        assert prog.compiled is None
        assert bpf.vm.compiles == 0


class TestEnginePinning:
    def test_vm_rejects_unknown_engine(self):
        kernel = Kernel()
        with pytest.raises(ValueError, match="unknown engine 'turbo'"
                           ".*'interp', 'fast', 'compiled'"):
            BpfSubsystem(kernel, engine="turbo")

    def test_prog_by_id_round_trip(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "pin")
        assert bpf.prog_by_id(prog.prog_id) is prog
        assert bpf.prog_by_id(999) is None
        assert prog in bpf.all_progs()


class TestLazyCompile:
    def test_hand_built_program_compiles_once(self):
        # no loader in the loop: the VM predecodes and compiles on
        # first run and reuses the attached artifacts afterwards
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        vm = BpfVm(kernel, bpf, engine="compiled")
        prog = LoadedProgram(1, "hand", ProgType.KPROBE,
                             _branchy_program(), VerifierStats())
        ctx = kernel.mem.kmalloc(64, type_name="pt_regs",
                                 owner="test")
        assert vm.run(prog, ctx.base) == 10
        assert vm.compiles == 1
        assert prog.predecoded is not None
        assert prog.cache_entry is None
        assert vm.run(prog, ctx.base) == 10
        assert vm.compiles == 1  # cached on the program object
