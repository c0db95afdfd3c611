"""Golden outputs of the verifier over a fixed corpus.

For every load in each corpus group, the verdict, the exception type
and message, ``insns_processed``, ``states_explored``, ``prune_hits``
and ``peak_pending`` are hashed.  The literals were computed with the
verifier as it stood before its fast paths (unchecked tnum results,
single-copy forks, skipped dead snapshots, indexed cycle keys) went
in, so any change to what the verifier decides or counts fails here,
not only where some other test happens to assert on it.

The ``logs`` group also hashes each load's ``log_level=2`` trace,
which prints the abstract state of every live register at every
instruction walked, so it pins states, not only verdicts and
counters.  Its literal was computed before the constant-operand fold
in ``Verifier._do_alu`` went in.
"""

import functools
import hashlib
import random

import pytest

from repro.analysis.fuzz import random_program
from repro.ebpf import Asm, ProgType
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.helpers.registry import build_default_registry
from repro.ebpf.isa import R0, R1, R2, R3, R4, R6, R7
from repro.ebpf.verifier.analyzer import Verifier, VerifierConfig
from repro.ebpf.verifier.limits import VerifierLimits
from repro.experiments.exp_verification_cost import (
    diamond_program,
    straight_line_program,
)

REGISTRY = build_default_registry()

FUZZ_SEED = 2023
FUZZ_PROGRAMS = 1000


def outcome(insns, config: VerifierConfig) -> str:
    """One load's golden line, followed by its log at ``log_level=2``."""
    verifier = Verifier(insns, ProgType.KPROBE, REGISTRY, {}, config)
    try:
        verifier.verify()
        verdict = "ok||"
    except Exception as error:  # noqa: BLE001 - the type is the result
        verdict = f"rejected|{type(error).__name__}|{error}"
    stats = verifier.stats
    line = (f"{verdict}|{stats.insns_processed}|{stats.states_explored}"
            f"|{stats.prune_hits}|{stats.peak_pending}")
    if config.log_level >= 2:
        line = "\n".join([line, *stats.log])
    return line


def counted_loop(count: int) -> list:
    return (Asm().ld_imm64(R0, count).label("top")
            .alu64_imm("sub", R0, 1)
            .jmp_imm("jne", R0, 0, "top")
            .exit_().program())


def non_terminating_loop() -> list:
    # the state repeats every iteration: a cycle with no progress
    return (Asm().mov64_imm(R0, 5).label("top")
            .mov64_imm(R0, 5)
            .jmp_imm("jne", R0, 0, "top")
            .exit_().program())


def nested_loop(outer: int, inner: int) -> list:
    return (Asm().mov64_imm(R6, outer).label("outer")
            .mov64_imm(R7, inner).label("inner")
            .alu64_imm("sub", R7, 1).jmp_imm("jne", R7, 0, "inner")
            .alu64_imm("sub", R6, 1).jmp_imm("jne", R6, 0, "outer")
            .mov64_imm(R0, 0).exit_().program())


def cross_fork_cycle() -> list:
    # the taken side reloads r0 and jumps back: at the loop head its
    # state equals the one checkpointed there before the fork
    return (Asm().ldx(8, R0, R1, 0).label("top")
            .jmp_imm("jeq", R0, 7, "back")
            .mov64_imm(R0, 0).exit_()
            .label("back").ldx(8, R0, R1, 0)
            .ja("top").program())


def fork_isolation(branch) -> list:
    """Only the fall side sets r3, so the taken side's read of r3 must
    be rejected: the two sides of a fork may not share state."""
    asm = Asm().ldx(8, R0, R1, 0).ldx(8, R2, R1, 8)
    branch(asm)
    return (asm.mov64_imm(R3, 5).mov64_imm(R0, 0).exit_()
            .label("taken").mov64_reg(R0, R3).exit_().program())


FORK_KINDS = (
    lambda asm: asm.jmp_imm("jgt", R0, 5, "taken"),
    lambda asm: asm.jmp_reg("jgt", R0, R2, "taken"),
    lambda asm: asm.jmp32_imm("jgt", R0, 5, "taken"),
    lambda asm: asm.jmp32_reg("jgt", R0, R2, "taken"),
    lambda asm: asm.jmp_imm("jeq", R1, 0, "taken"),   # pointer compare
)


def subprog_loop() -> list:
    return (Asm().call_subprog("f").call_subprog("f").exit_()
            .label("f").mov64_imm(R0, 20).label("top")
            .alu64_imm("sub", R0, 1).jmp_imm("jne", R0, 0, "top")
            .exit_().program())


def backward_call() -> list:
    return (Asm().ja("main")
            .label("f").mov64_imm(R0, 1).exit_()
            .label("main").call_subprog("f").exit_().program())


def bpf_loop_program(backward: bool) -> list:
    asm = Asm()
    if backward:
        asm.ja("main").label("cb").mov64_imm(R0, 0).exit_().label("main")
    asm.mov64_imm(R1, 10).ld_func(R2, "cb").mov64_imm(R3, 0)
    asm.mov64_imm(R4, 0).call(ids.BPF_FUNC_loop).mov64_imm(R0, 0).exit_()
    if not backward:
        asm.label("cb").mov64_imm(R0, 0).exit_()
    return asm.program()


def fuzz_programs() -> list:
    rng = random.Random(FUZZ_SEED)
    return [random_program(rng, max_insns=40)
            for __ in range(FUZZ_PROGRAMS)]


def fuzz_lines(bugs: BugConfig) -> list:
    return [outcome(program, VerifierConfig(bugs=bugs))
            for program in fuzz_programs()]


def fuzz_variant_lines() -> list:
    """Unpruned and pointer-leaking walks of the first 300."""
    configs = (VerifierConfig(prune_states=False),
               VerifierConfig(allow_ptr_leaks=True))
    return [outcome(program, config)
            for program in fuzz_programs()[:300] for config in configs]


def loop_lines() -> list:
    configs = (
        VerifierConfig(),
        VerifierConfig(limits=VerifierLimits.unprivileged()),
        VerifierConfig(prune_states=False),
        # a walk cut off by the complexity cap
        VerifierConfig(limits=VerifierLimits(complexity_limit=500)),
    )
    programs = (counted_loop(1), counted_loop(300), counted_loop(2000),
                non_terminating_loop(), Asm().label("x").ja("x").program(),
                nested_loop(4, 6), nested_loop(12, 20))
    return [outcome(program, config)
            for config in configs for program in programs]


def fork_and_call_lines() -> list:
    programs = [cross_fork_cycle(), subprog_loop(), backward_call(),
                Asm().label("f").call_subprog("f").mov64_imm(R0, 0)
                .exit_().program(),
                bpf_loop_program(False), bpf_loop_program(True)]
    programs += [fork_isolation(kind) for kind in FORK_KINDS]
    return [outcome(program, config)
            for config in (VerifierConfig(),
                           VerifierConfig(prune_states=False))
            for program in programs]


def cost_lines() -> list:
    small = VerifierLimits(complexity_limit=200_000)
    lines = [outcome(straight_line_program(size), VerifierConfig())
             for size in (64, 256, 1024, 5000)]
    lines += [outcome(diamond_program(branches),
                      VerifierConfig(limits=small))
              for branches in (4, 8, 12, 16)]
    lines += [outcome(diamond_program(branches),
                      VerifierConfig(limits=small, prune_states=False))
              for branches in (4, 8)]
    return lines


def log_lines() -> list:
    programs = fuzz_programs()[:200] + [straight_line_program(64),
                                        diamond_program(4)]
    return [outcome(program, VerifierConfig(log_level=2))
            for program in programs]


GROUPS = {
    "fuzz-default-bugs": lambda: fuzz_lines(BugConfig()),
    "fuzz-all-patched": lambda: fuzz_lines(BugConfig.all_patched()),
    "fuzz-variants": fuzz_variant_lines,
    "loops": loop_lines,
    "forks-and-calls": fork_and_call_lines,
    "cost": cost_lines,
    "logs": log_lines,
}

GOLDEN = {
    "fuzz-default-bugs":
        "3242b9991b252163a48731943dbe31db4adc3badf2052625e7a63ae6009bf81b",
    "fuzz-all-patched":
        "3242b9991b252163a48731943dbe31db4adc3badf2052625e7a63ae6009bf81b",
    "fuzz-variants":
        "3aa25d1a5f3dce1aa1c9a5e158bb8535ca0d9026e6862dd47207c048860c4f15",
    "loops":
        "54caa577ac96543b34a6015d26386ee082ae35c4ca14d303ed9436b556282409",
    "forks-and-calls":
        "11c680cdb58b1bbf77e580de59225c3f8b80cc0d177687039cb47cb515acfe31",
    "cost":
        "ed56fe68004e3ae9eddcbb89597f26d8f50fd4a44752d841d46eb4599f94d691",
    "logs":
        "670e3e56920d2bf7544986bdbc99fdceabc06089664e186b4cacbb596dbe6792",
}


@functools.lru_cache(maxsize=None)
def group_lines(group: str) -> tuple:
    return tuple(GROUPS[group]())


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_verifier_outputs_match_golden(group):
    assert digest(group_lines(group)) == GOLDEN[group]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_corpus_exercises_both_verdicts(group):
    lines = group_lines(group)
    assert any(line.startswith("ok|") for line in lines)
    assert any(line.startswith("rejected|") for line in lines)
