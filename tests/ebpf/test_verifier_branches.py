"""Verifier tests: branch refinement, pruning, branch elimination."""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R1, R2, R3, R10
from repro.ebpf.progs import ProgType
from repro.errors import VerifierError


class TestBranchRefinement:
    def test_jle_bounds_enable_xdp_return(self, load):
        # if r0 > 4 we return 0; otherwise r0 proven <= 4
        program = (Asm()
                   .ldx(4, R0, R1, 0)
                   .jmp_imm("jle", R0, 4, "ok")
                   .mov64_imm(R0, 0)
                   .label("ok")
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)

    def test_jeq_pins_value(self, load):
        program = (Asm()
                   .ldx(4, R0, R1, 0)
                   .jmp_imm("jeq", R0, 2, "is2")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .label("is2")      # r0 proven == 2 here
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)

    def test_jge_lower_bound(self, bpf):
        amap = bpf.create_map("array", key_size=4, value_size=16,
                              max_entries=1)
        from repro.ebpf.helpers import ids
        # value + idx access valid only because jge/jle sandwich
        program = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, amap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .jmp_imm("jne", R0, 0, "have")
                   .mov64_imm(R0, 0).exit_()
                   .label("have")
                   .ldx(8, R3, R0, 0)
                   .jmp_imm("jgt", R3, 8, "out")   # r3 <= 8 after
                   .alu64_reg("add", R0, R3)
                   .st_imm(8, R0, 0, 1)            # 8 + 8 <= 16 ok
                   .label("out")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        bpf.load_program(program, ProgType.KPROBE, "t")

    def test_signed_refinement(self, load):
        program = (Asm()
                   .ldx(4, R0, R1, 0)
                   .jmp_imm("jslt", R0, 0, "neg")
                   .jmp_imm("jsgt", R0, 4, "big")
                   .exit_()            # 0 <= r0 <= 4
                   .label("neg")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .label("big")
                   .mov64_imm(R0, 1)
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)

    def test_reg_reg_refinement(self, load):
        program = (Asm()
                   .ldx(4, R0, R1, 0)
                   .mov64_imm(R2, 4)
                   .jmp_reg("jgt", R0, R2, "big")
                   .exit_()            # r0 <= 4
                   .label("big")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)


class TestBranchElimination:
    def test_const_condition_walks_one_side(self, load):
        """if 5 == 5 always takes the branch; the dead side can even
        contain garbage the verifier never sees (dead-code issue the
        real verifier also has pre-sanitization)."""
        program = (Asm()
                   .mov64_imm(R2, 5)
                   .jmp_imm("jeq", R2, 5, "alive")
                   .ldx(8, R0, R3, 0)   # dead: R3 uninitialized
                   .exit_()
                   .label("alive")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        prog = load(program)
        assert prog is not None

    def test_impossible_branch_not_walked(self, load):
        program = (Asm()
                   .mov64_imm(R2, 3)
                   .jmp_imm("jgt", R2, 10, "never")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .label("never")
                   .ldx(8, R0, R3, 0)   # dead
                   .exit_()
                   .program())
        load(program)


class TestPruning:
    def diamond_chain(self, count):
        asm = Asm().mov64_imm(R0, 0)
        for index in range(count):
            asm.jmp_imm("jeq", R1, index + 1, f"o{index}")
            asm.alu64_imm("add", R0, 1)
            asm.ja(f"j{index}")
            asm.label(f"o{index}")
            asm.alu64_imm("add", R0, 2)
            asm.label(f"j{index}")
        asm.alu64_imm("and", R0, 0)
        asm.exit_()
        return asm.program()

    def test_pruning_bounds_state_growth(self, load):
        pruned = load(self.diamond_chain(10))
        unpruned = load(self.diamond_chain(10), prune_states=False)
        assert pruned.verifier_stats.insns_processed < \
            unpruned.verifier_stats.insns_processed

    def test_unpruned_grows_exponentially(self, load):
        eight = load(self.diamond_chain(8),
                     prune_states=False).verifier_stats
        ten = load(self.diamond_chain(10),
                   prune_states=False).verifier_stats
        # two more diamonds ~ 4x the work without pruning
        assert ten.insns_processed > 3 * eight.insns_processed

    def test_pruned_grows_linearly(self, load):
        eight = load(self.diamond_chain(8)).verifier_stats
        sixteen = load(self.diamond_chain(16)).verifier_stats
        assert sixteen.insns_processed < 4 * eight.insns_processed

    def test_prune_hits_recorded(self, load):
        stats = load(self.diamond_chain(6)).verifier_stats
        assert stats.prune_hits > 0

    def test_max_states_per_insn_recorded(self, load):
        stats = load(self.diamond_chain(6)).verifier_stats
        assert 1 < stats.max_states_per_insn < stats.states_explored
        unpruned = load(self.diamond_chain(6), prune_states=False)
        assert unpruned.verifier_stats.max_states_per_insn == 0

    def test_max_states_per_insn_capped(self, load):
        program = (Asm()
                   .mov64_imm(R0, 1000)
                   .label("top")
                   .alu64_imm("sub", R0, 1)
                   .jmp_imm("jne", R0, 0, "top")
                   .exit_()
                   .program())
        stats = load(program).verifier_stats
        # the loop head keeps the kernel's 64 states, no more
        assert stats.max_states_per_insn == 64
        assert stats.states_explored == 65


class TestJsetRefinement:
    def test_false_branch_clears_tested_bits(self, bpf):
        """`if r & ~7 goto out` on the fall-through proves r <= 7 —
        the classic mask-check idiom."""
        from repro.ebpf.helpers import ids
        amap = bpf.create_map("array", key_size=4, value_size=16,
                              max_entries=1)
        from repro.ebpf.isa import R0, R1, R2, R3, R10
        program = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, amap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .jmp_imm("jne", R0, 0, "have")
                   .mov64_imm(R0, 0).exit_()
                   .label("have")
                   .ldx(8, R3, R0, 0)
                   .jmp_imm("jset", R3, -8, "out")   # any bit >= 3 set?
                   .alu64_reg("add", R0, R3)          # r3 <= 7 here
                   .st_imm(8, R0, 0, 1)               # 7 + 8 <= 16
                   .label("out")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        bpf.load_program(program, __import__(
            "repro.ebpf.progs", fromlist=["ProgType"]
        ).ProgType.KPROBE, "jset")

    def test_taken_branch_not_overrefined(self, load):
        # on the taken branch nothing is known; both sides must verify
        from repro.ebpf.isa import R0, R1, R2
        program = (Asm()
                   .ldx(8, R2, R1, 0)
                   .jmp_imm("jset", R2, 0xF0, "some")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .label("some")
                   .mov64_imm(R0, 1)
                   .exit_()
                   .program())
        load(program)
