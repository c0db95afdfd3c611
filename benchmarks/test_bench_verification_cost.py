"""§2.1 cost bench: verifier scaling (with the pruning ablation) vs
signature-validation scaling."""

import pytest

from conftest import run_once
from timing import interleave, medians, paired, timed

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers.registry import build_default_registry
from repro.ebpf.isa import R0
from repro.ebpf.verifier.analyzer import Verifier
from repro.ebpf.verifier.limits import VerifierLimits
from repro.experiments import exp_verification_cost
from repro.kernel import Kernel


def test_bench_verification_cost_experiment(benchmark):
    result = run_once(benchmark, exp_verification_cost.run)
    assert result.size_cap_rejected_at is not None
    assert any(rejected for __, __, rejected in
               result.unpruned_series)
    print()
    print(exp_verification_cost.render(result))


@pytest.mark.parametrize("size", [64, 512, 4000])
def test_bench_verify_straight_line(benchmark, size):
    """Verifier wall time vs program size (linear regime)."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel)
    program = exp_verification_cost.straight_line_program(size)

    counter = iter(range(10**9))

    def verify():
        return bpf.load_program(program, ProgType.KPROBE,
                                f"flat{size}-{next(counter)}")

    prog = benchmark(verify)
    assert prog.verifier_stats.insns_processed >= size - 2


@pytest.mark.parametrize("branches,prune", [(12, True), (12, False)])
def test_bench_verify_diamonds(benchmark, branches, prune):
    """The pruning ablation as timed rows."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel)
    program = exp_verification_cost.diamond_program(branches)
    limits = VerifierLimits(complexity_limit=500_000)
    counter = iter(range(10**9))

    def verify():
        return bpf.load_program(
            program, ProgType.KPROBE,
            f"d{branches}-{prune}-{next(counter)}",
            prune_states=prune, limits=limits)

    prog = benchmark(verify)
    if prune:
        assert prog.verifier_stats.insns_processed < 2000


def test_bench_signature_validation(benchmark):
    """The proposed framework's whole load-time check."""
    from repro.core import SafeExtensionFramework
    kernel = Kernel()
    framework = SafeExtensionFramework(kernel)
    ext = framework.compile(
        """
        fn prog(ctx: XdpCtx) -> i64 {
            let mut acc: u64 = 0;
            for i in 0..64 { acc = acc + i; }
            return acc as i64;
        }
        """, "bench")

    loaded = benchmark(framework.load, ext)
    assert loaded.program.function("prog") is not None


def _counted_loop(iterations: int) -> list:
    """A loop the verifier walks iteration by iteration: it processes
    ``2 * iterations + 2`` instructions."""
    return (Asm().ld_imm64(R0, iterations).label("top")
            .alu64_imm("sub", R0, 1)
            .jmp_imm("jne", R0, 0, "top")
            .exit_().program())


def _walk(program: list, registry):
    """An arm whose window is one verifier walk of ``program``."""
    def window():
        stats, seconds = timed(
            Verifier(program, ProgType.KPROBE, registry, {}).verify)
        return stats.insns_processed, seconds
    return window


def test_verify_cost_per_insn_flat_on_counted_loop():
    """Verifier wall time per processed instruction must not grow
    with the walk: the ~128k-instruction walk of a counted loop may
    cost at most 1.5x per instruction what the ~4k walk costs (the
    median of interleaved rounds; the target is 1.25x).  Runs under
    plain pytest: it takes no ``benchmark`` fixture."""
    registry = build_default_registry()
    rates = interleave({"4k": _walk(_counted_loop(2_000), registry),
                        "128k": _walk(_counted_loop(64_000), registry)},
                       rounds=15)
    # insns/sec at 4k over that at 128k: the 128k walk's time per insn
    # over the 4k walk's
    ratio = paired(rates, "4k", "128k")
    us_per_insn = {size: round(1e6 / rate, 1)
                   for size, rate in medians(rates).items()}
    print(f"\ncounted loop: us/insn {us_per_insn}, 128k/4k per round: "
          + ", ".join(f"{r:.2f}" for r in ratio.values))
    ratio.at_most(1.5, "128k/4k verifier time per insn")
