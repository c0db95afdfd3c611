"""§2.1 cost experiment: verification is expensive; signatures are not.

"Since the verifier needs to evaluate all possible execution paths, it
has to limit the eBPF program size and complexity to complete the
verification in time."

Measured here:

1. **verification work vs program size** — straight-line programs:
   processed instructions grow linearly with size, and programs over
   the size cap are rejected;
2. **verification work vs branching** — diamond chains: with state
   pruning the cost stays polynomial, without pruning it explodes
   exponentially until the complexity cap rejects the program (the
   DESIGN.md pruning ablation);
3. **signature validation vs size** — the proposed framework's load
   cost is a flat hash over the image: the asymptotic contrast that
   motivates decoupling (§3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.signing import SigningKey
from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.isa import R0, R1
from repro.ebpf.verifier.limits import VerifierLimits
from repro.errors import VerifierLimitExceeded
from repro.experiments import report
from repro.kernel.kernel import Kernel


def straight_line_program(size: int) -> list:
    """``size``-ish instructions of flat ALU work."""
    asm = Asm().mov64_imm(R0, 0)
    for index in range(size - 3):
        asm.alu64_imm("add", R0, index & 0xFF)
    asm.alu64_imm("and", R0, 0)
    asm.exit_()
    return asm.program()


def diamond_program(branches: int) -> list:
    """A chain of ``branches`` independent if/else diamonds, each
    touching a different register pattern so states differ."""
    asm = Asm().mov64_imm(R0, 0)
    for index in range(branches):
        asm.jmp_imm("jeq", R1, index + 1, f"odd{index}")
        asm.alu64_imm("add", R0, 1)
        asm.ja(f"join{index}")
        asm.label(f"odd{index}")
        asm.alu64_imm("add", R0, 2)
        asm.label(f"join{index}")
    asm.alu64_imm("and", R0, 0)
    asm.exit_()
    return asm.program()


@dataclass
class CostResult:
    """All four measurement series."""

    #: (program size, insns processed, wall seconds)
    size_series: List[Tuple[int, int, float]]
    #: size at which the max_insns cap rejects
    size_cap_rejected_at: Optional[int]
    #: (branch count, insns processed with pruning)
    pruned_series: List[Tuple[int, int]]
    #: (branch count, insns processed without pruning, rejected?)
    unpruned_series: List[Tuple[int, int, bool]]
    #: (image size bytes, signature check wall seconds)
    signature_series: List[Tuple[int, float]]


def run() -> CostResult:
    """Run all measurements."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel)

    size_series = []
    for size in (64, 256, 1024, 4000):
        program = straight_line_program(size)
        start = time.perf_counter()
        prog = bpf.load_program(program, ProgType.KPROBE,
                                f"flat{size}")
        wall = time.perf_counter() - start
        size_series.append(
            (len(program), prog.verifier_stats.insns_processed, wall))

    size_cap_rejected_at: Optional[int] = None
    try:
        bpf.load_program(straight_line_program(5000), ProgType.KPROBE,
                         "too_big")
    except VerifierLimitExceeded:
        size_cap_rejected_at = 5000

    pruned_series = []
    unpruned_series = []
    small_limits = VerifierLimits(complexity_limit=200_000)
    for branches in (4, 8, 12, 16):
        program = diamond_program(branches)
        prog = bpf.load_program(program, ProgType.KPROBE,
                                f"diamond{branches}",
                                limits=small_limits)
        pruned_series.append(
            (branches, prog.verifier_stats.insns_processed))
        try:
            prog = bpf.load_program(program, ProgType.KPROBE,
                                    f"diamond{branches}x",
                                    prune_states=False,
                                    limits=small_limits)
            unpruned_series.append(
                (branches, prog.verifier_stats.insns_processed, False))
        except VerifierLimitExceeded:
            unpruned_series.append(
                (branches, small_limits.complexity_limit, True))

    key = SigningKey.generate("bench")
    signature_series = []
    for size_kib in (1, 16, 256, 1024):
        image = bytes(size_kib * 1024)
        signature = key.sign(image)
        start = time.perf_counter()
        for __ in range(20):
            key.verify(image, signature)
        wall = (time.perf_counter() - start) / 20
        signature_series.append((size_kib * 1024, wall))

    return CostResult(
        size_series=size_series,
        size_cap_rejected_at=size_cap_rejected_at,
        pruned_series=pruned_series,
        unpruned_series=unpruned_series,
        signature_series=signature_series,
    )


def render(result: CostResult) -> str:
    """The experiment artifact."""
    parts = [report.render_table(
        ["program insns", "verifier steps", "wall (ms)"],
        [(n, steps, f"{w * 1e3:.2f}")
         for n, steps, w in result.size_series],
        title="§2.1 cost: verification work vs program size")]
    parts.append(
        f"size cap: a {result.size_cap_rejected_at}-insn program is "
        "rejected (max_insns=4096)"
        if result.size_cap_rejected_at else
        "size cap: NOT OBSERVED")
    parts.append("")
    rows = []
    unpruned_by_branch = {b: (steps, rejected)
                          for b, steps, rejected in
                          result.unpruned_series}
    for branches, pruned_steps in result.pruned_series:
        steps, rejected = unpruned_by_branch[branches]
        rows.append((branches, pruned_steps,
                     f"{steps}{' (REJECTED: too complex)' if rejected else ''}"))
    parts.append(report.render_table(
        ["branch diamonds", "steps (pruning on)",
         "steps (pruning off)"], rows,
        title="Path explosion: the state-pruning ablation"))
    parts.append("")
    parts.append(report.render_table(
        ["image bytes", "signature check (us)"],
        [(size, f"{w * 1e6:.1f}") for size, w in
         result.signature_series],
        title="The contrast: signature validation cost "
              "(proposed framework load path)"))
    parts.append("")
    parts.append("Shape checks:")
    linear = result.size_series[-1][1] / result.size_series[0][1]
    size_ratio = result.size_series[-1][0] / result.size_series[0][0]
    parts.append(report.check(
        "verifier work scales ~linearly on straight-line code "
        f"({linear:.0f}x steps for {size_ratio:.0f}x size)",
        0.5 * size_ratio <= linear <= 2.0 * size_ratio))
    parts.append(report.check(
        "programs beyond the size cap are rejected",
        result.size_cap_rejected_at is not None))
    explosion = any(rejected for __, __, rejected in
                    result.unpruned_series)
    parts.append(report.check(
        "without pruning, branching explodes past the complexity cap "
        "(rejection observed)", explosion))
    last_pruned = result.pruned_series[-1][1]
    parts.append(report.check(
        "with pruning, the same programs verify cheaply "
        f"({last_pruned} steps at 16 diamonds)",
        last_pruned < 10_000))
    sig_ratio = (result.signature_series[-1][1]
                 / max(result.signature_series[0][1], 1e-9))
    byte_ratio = (result.signature_series[-1][0]
                  / result.signature_series[0][0])
    parts.append(report.check(
        f"signature check is a flat hash: {sig_ratio:.0f}x time for "
        f"{byte_ratio:.0f}x bytes (linear in size, no path term)",
        sig_ratio <= 4 * byte_ratio))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
