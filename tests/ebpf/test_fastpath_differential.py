"""Differential tests: every execution engine vs the reference path.

The predecoded fast path and the compiled tier must be
observationally identical to the decode-per-step interpreter — same
return values, same ``insns_executed``, same virtual-clock totals,
same oops behaviour.  Two layers of evidence:

* the full eBPF attack corpus, run through every engine, must land on
  the same :class:`Outcome` and the same kernel taint/oops state;
* a battery of direct programs (ALU mixes, stack traffic, jumps,
  subprogs, ``bpf_loop``, atomics, tail calls, and an unverified
  wild-pointer crasher) must produce bit-identical results and
  identical accounting on every engine.
"""

import pytest

from repro.ebpf import interpreter as interp_mod
from repro.ebpf import isa
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.interpreter import ENGINES
from repro.ebpf.isa import R0, R1, R2, R3, R4, R6, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.attacks.corpus import build_corpus, run_case
from repro.kernel import Kernel

EBPF_CASES = [c for c in build_corpus() if c.framework == "ebpf"]


def _observe(case, engine):
    """Run one corpus case on a fresh kernel with the given engine."""
    old = interp_mod.DEFAULT_ENGINE
    interp_mod.DEFAULT_ENGINE = engine
    try:
        kernel = Kernel()
        outcome = run_case(case, kernel=kernel)
        oopses = [(o.category, o.source)
                  for o in kernel.log.open_oopses]
        return outcome, kernel.log.tainted, oopses
    finally:
        interp_mod.DEFAULT_ENGINE = old


class TestCorpusDifferential:
    @pytest.mark.parametrize(
        "case", EBPF_CASES, ids=[c.case_id for c in EBPF_CASES])
    def test_engines_agree_on_attack_corpus(self, case):
        seen = {engine: _observe(case, engine) for engine in ENGINES}
        baseline = seen["interp"]
        for engine, obs in seen.items():
            assert obs == baseline, (
                f"{case.case_id}: {engine} diverged "
                f"(interp={baseline}, {engine}={obs})")


def _run_both(build, prog_type=ProgType.KPROBE):
    """Load and run the same program on every engine; assert identical
    return value, instruction count and virtual-clock total, then
    return the (shared) observation."""
    seen = {}
    for engine in ENGINES:
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine=engine)
        prog = bpf.load_program(build(bpf), prog_type, "diff")
        ret = bpf.run_on_current_task(prog)
        seen[engine] = (ret, bpf.vm.insns_executed,
                        kernel.clock.now_ns)
    assert len(set(seen.values())) == 1, f"engines diverged: {seen}"
    return seen["interp"]


class TestDirectDifferential:
    def test_alu_mix(self):
        def build(bpf):
            asm = Asm().mov64_imm(R0, 1)
            for i, op in enumerate(
                    ("add", "mul", "or", "xor", "and", "sub",
                     "lsh", "rsh", "arsh", "div", "mod")):
                asm.alu64_imm(op, R0, i + 3)
            asm.alu32_imm("mov", R2, -5)
            asm.alu32_imm("add", R2, 7)
            asm.alu64_reg("add", R0, R2)
            asm.neg64(R0)
            return asm.exit_().program()
        _run_both(build)

    def test_stack_traffic(self):
        def build(bpf):
            asm = Asm()
            for i, size in enumerate((1, 2, 4, 8)):
                asm.st_imm(size, R10, -8 * (i + 1), 0x1122334455 + i)
            asm.mov64_imm(R0, 0)
            for i, size in enumerate((1, 2, 4, 8)):
                asm.ldx(size, R2, R10, -8 * (i + 1))
                asm.alu64_reg("add", R0, R2)
            asm.mov64_imm(R3, -1)
            asm.stx(8, R10, -40, R3)
            asm.ldx(4, R2, R10, -40)
            asm.alu64_reg("add", R0, R2)
            return asm.exit_().program()
        _run_both(build)

    def test_jump_ladder(self):
        def build(bpf):
            return (Asm()
                    .mov64_imm(R0, 0)
                    .mov64_imm(R2, 10)
                    .label("loop")
                    .alu64_reg("add", R0, R2)
                    .alu64_imm("sub", R2, 1)
                    .jmp_imm("jsgt", R2, 0, "loop")
                    .mov64_imm(R3, -4)
                    .jmp_imm("jslt", R3, 0, "neg")
                    .mov64_imm(R0, 0)
                    .label("neg")
                    .alu32_imm("mov", R2, 5)
                    .jmp32_imm("jeq", R2, 5, "done")
                    .mov64_imm(R0, 0)
                    .label("done")
                    .exit_()
                    .program())
        _run_both(build)

    def test_ld_imm64_and_wide_constants(self):
        def build(bpf):
            return (Asm()
                    .ld_imm64(R0, 0x1234_5678_9ABC_DEF0)
                    .ld_imm64(R2, -1)
                    .alu64_reg("xor", R0, R2)
                    .exit_()
                    .program())
        _run_both(build)

    def test_subprog_call(self):
        def build(bpf):
            return (Asm()
                    .mov64_imm(R1, 40)
                    .mov64_imm(R2, 2)
                    .call_subprog("add")
                    .exit_()
                    .label("add")
                    .mov64_reg(R0, R1)
                    .alu64_reg("add", R0, R2)
                    .exit_()
                    .program())
        assert _run_both(build)[0] == 42

    def test_bpf_loop(self):
        def build(bpf):
            return (Asm()
                    .mov64_imm(R1, 25)
                    .ld_func(R2, "body")
                    .mov64_imm(R3, 0)
                    .mov64_imm(R4, 0)
                    .call(ids.BPF_FUNC_loop)
                    .exit_()
                    .label("body")
                    .mov64_imm(R0, 0)
                    .exit_()
                    .program())
        assert _run_both(build)[0] == 25

    def test_atomics_all_sub_ops(self):
        def build(bpf):
            asm = (Asm()
                   .st_imm(8, R10, -8, 0b1100)
                   .mov64_imm(R2, 0b1010))
            for op in ("add", "or", "and", "xor"):
                asm.atomic_op(op, 8, R10, -8, R2, fetch=True)
            asm.mov64_imm(R2, 77)
            asm.atomic_xchg(8, R10, -8, R2)
            asm.mov64_reg(R0, R2)      # old value from xchg
            asm.mov64_imm(R2, 5)
            asm.atomic_cmpxchg(8, R10, -8, R2)
            asm.ldx(8, R2, R10, -8)
            asm.alu64_reg("add", R0, R2)
            return asm.exit_().program()
        _run_both(build)

    def test_map_access(self):
        def build(bpf):
            amap = bpf.create_map("array", key_size=4, value_size=8,
                                  max_entries=4)
            return (Asm()
                    .st_imm(4, R10, -4, 0)
                    .mov64_reg(R2, R10)
                    .alu64_imm("add", R2, -4)
                    .ld_map_fd(R1, amap.map_fd)
                    .call(ids.BPF_FUNC_map_lookup_elem)
                    .jmp_imm("jeq", R0, 0, "miss")
                    .st_imm(8, R0, 0, 123)
                    .ldx(8, R0, R0, 0)
                    .exit_()
                    .label("miss")
                    .mov64_imm(R0, 0)
                    .exit_()
                    .program())
        assert _run_both(build)[0] == 123

    def test_tail_call(self):
        seen = []
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel, engine=engine)
            pa = bpf.create_map("prog_array", max_entries=4)
            target = bpf.load_program(
                Asm().mov64_imm(R0, 777).exit_().program(),
                ProgType.KPROBE, "target")
            pa.set_prog(0, target)
            caller = bpf.load_program(
                (Asm()
                 .mov64_reg(R6, R1)
                 .mov64_reg(R1, R6)
                 .ld_map_fd(R2, pa.map_fd)
                 .mov64_imm(R3, 0)
                 .call(ids.BPF_FUNC_tail_call)
                 .mov64_imm(R0, 1)
                 .exit_()
                 .program()), ProgType.KPROBE, "caller")
            ret = bpf.run_on_current_task(caller)
            seen.append((ret, bpf.vm.insns_executed,
                         kernel.clock.now_ns))
        assert len(set(seen)) == 1, seen
        assert seen[0][0] == 777

    def test_unverified_wild_pointer_oopses_identically(self):
        """Every engine must fault the same way on a raw store through
        a garbage pointer (no verifier in the loop)."""
        from repro.ebpf.interpreter import BpfVm
        from repro.ebpf.loader import LoadedProgram
        from repro.ebpf.verifier.analyzer import VerifierStats
        from repro.errors import KernelOops

        seen = []
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel)
            vm = BpfVm(kernel, bpf, engine=engine)
            insns = (Asm()
                     .ld_imm64(R2, 0xDEAD_BEEF_0000)
                     .st_imm(8, R2, 0, 1)
                     .mov64_imm(R0, 0)
                     .exit_()
                     .program())
            prog = LoadedProgram(1, "wild", ProgType.KPROBE, insns,
                                 VerifierStats())
            regs = kernel.mem.kmalloc(64, type_name="pt_regs",
                                      owner="test")
            with pytest.raises(KernelOops):
                vm.run(prog, regs.base)
            seen.append((vm.insns_executed, kernel.log.tainted,
                         tuple((o.category, o.source)
                               for o in kernel.log.open_oopses)))
        assert len(set(seen)) == 1, seen

    def test_decode_error_matches(self):
        """A bogus opcode raises the same message on every engine."""
        from repro.ebpf.interpreter import BpfVm
        from repro.ebpf.isa import Insn
        from repro.ebpf.loader import LoadedProgram
        from repro.ebpf.verifier.analyzer import VerifierStats
        from repro.errors import BpfRuntimeError

        msgs = []
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel)
            vm = BpfVm(kernel, bpf, engine=engine)
            insns = [Insn(0xFF, 0, 0, 0, 0),
                     Insn(isa.BPF_JMP | isa.BPF_EXIT)]
            prog = LoadedProgram(1, "junk", ProgType.KPROBE, insns,
                                 VerifierStats())
            regs = kernel.mem.kmalloc(64, type_name="pt_regs",
                                      owner="test")
            with pytest.raises(BpfRuntimeError) as err:
                vm.run(prog, regs.base)
            msgs.append(str(err.value))
        assert len(set(msgs)) == 1, msgs


class TestStatsDifferential:
    """With stats enabled, every engine must report identical
    per-program telemetry — run_cnt, run_time_ns, insns and helper
    counts are part of the observational contract."""

    def _stats_both(self, build, runs=3):
        seen = []
        for engine in ENGINES:
            kernel = Kernel()
            kernel.telemetry.enable()
            bpf = BpfSubsystem(kernel, engine=engine)
            prog = bpf.load_program(build(bpf), ProgType.KPROBE,
                                    "diff")
            for _ in range(runs):
                bpf.run_on_current_task(prog)
            row = kernel.telemetry.prog("ebpf", "diff")
            seen.append((row.run_cnt, row.run_time_ns, row.insns,
                         row.helper_calls,
                         dict(row.helper_counts)))
        assert seen[0] == seen[1] == seen[2], (
            f"stats diverged across engines: {seen}")
        return seen[0]

    def test_alu_loop_stats_identical(self):
        def build(bpf):
            return (Asm()
                    .mov64_imm(R0, 0).mov64_imm(R1, 64)
                    .label("loop")
                    .alu64_reg("add", R0, R1)
                    .alu64_imm("sub", R1, 1)
                    .jmp_imm("jne", R1, 0, "loop")
                    .exit_()
                    .program())
        run_cnt, run_time_ns, insns, helpers, _ = \
            self._stats_both(build)
        assert run_cnt == 3
        assert insns == run_time_ns       # 1 virtual ns per insn
        assert helpers == 0

    def test_helper_call_stats_identical(self):
        def build(bpf):
            return (Asm()
                    .call(ids.BPF_FUNC_ktime_get_ns)
                    .call(ids.BPF_FUNC_get_current_pid_tgid)
                    .call(ids.BPF_FUNC_ktime_get_ns)
                    .exit_()
                    .program())
        run_cnt, _, _, helpers, counts = self._stats_both(build)
        assert run_cnt == 3
        assert helpers == 9               # 3 calls x 3 runs
        assert counts == {"bpf_ktime_get_ns": 6,
                          "bpf_get_current_pid_tgid": 3}

    def test_stats_off_engines_record_nothing(self):
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel, engine=engine)
            prog = bpf.load_program(
                Asm().mov64_imm(R0, 0).exit_().program(),
                ProgType.KPROBE, "cold")
            bpf.run_on_current_task(prog)
            row = kernel.telemetry.prog("ebpf", "cold")
            assert (row.run_cnt, row.run_time_ns, row.insns) == \
                (0, 0, 0)
