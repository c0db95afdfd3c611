"""§2.2 termination experiment: RCU stalls via nested ``bpf_loop``.

The paper: "Our crafted eBPF code uses nested calls to the bpf_loop
helper ... It gives us linear control over total runtime; while we
have run it continuously for 800 seconds (more than enough to observe
RCU stalls), we calculate that with more nested loops and eBPF tail
calls, we can craft a program that will run for millions of years."

This experiment reproduces all three parts:

1. **linearity** — sweep ``nr_loops`` and fit runtime = a * nr_loops,
2. **the 800-second run** — a nesting configuration that exceeds 800
   virtual seconds while holding the RCU read lock; stall warnings
   observed, and the kernel has no mechanism to stop it,
3. **the extrapolation** — using the measured per-iteration cost,
   compute the projected runtime of deeper nestings (reaching
   "millions of years" at depth 4-5),

and then the contrast: the same unbounded loop in the proposed
framework is killed by the watchdog within its budget, with trusted
cleanup and zero RCU stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core import SafeExtensionFramework
from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R1, R2, R3, R4, R10
from repro.experiments import report
from repro.kernel.kernel import Kernel
from repro.kernel.ktime import NSEC_PER_SEC
from repro.kernel.rcu import stalled_ns

SECONDS_PER_YEAR = 365.25 * 24 * 3600

_SAFE_SPIN = """
fn prog(ctx: XdpCtx) -> i64 {
    let mut acc: u64 = 0;
    let mut i: u64 = 0;
    while true {
        i = i + 1;
        match map_lookup(0, 3) {
            Some(v) => { acc = acc + v; },
            None => { acc = acc + 1; },
        }
        map_update(0, 3, acc);
        if i == 0 { break; }    // never taken
    }
    return acc as i64;
}
"""


def _stall_program(nr_loops: int, depth: int, map_fd: int) -> list:
    """Nested bpf_loop program: ``depth`` levels of ``nr_loops`` each,
    innermost body doing map reads/writes (the paper's workload)."""
    asm = Asm()

    def emit_level(level: int) -> None:
        asm.mov64_imm(R1, nr_loops)
        asm.ld_func(R2, f"level{level + 1}"
                    if level + 1 < depth else "body")
        asm.mov64_imm(R3, 0)
        asm.mov64_imm(R4, 0)
        asm.call(ids.BPF_FUNC_loop)
        asm.mov64_imm(R0, 0)
        asm.exit_()

    emit_level(0)
    for level in range(1, depth):
        asm.label(f"level{level}")
        emit_level(level)
    asm.label("body")
    asm.st_imm(4, R10, -4, 3)
    asm.mov64_reg(R2, R10).alu64_imm("add", R2, -4)
    asm.ld_map_fd(R1, map_fd)
    asm.call(ids.BPF_FUNC_map_lookup_elem)
    asm.jmp_imm("jeq", R0, 0, "skip")
    asm.st_imm(8, R0, 0, 1)
    asm.label("skip")
    asm.mov64_imm(R0, 0)
    asm.exit_()
    return asm.program()


@dataclass
class StallResult:
    """Everything the experiment measures."""

    #: (nr_loops, virtual runtime ns) for the linearity sweep
    sweep: List[Tuple[int, int]]
    #: least-squares slope: ns per iteration
    ns_per_iteration: float
    #: linearity quality (max relative deviation from the fit)
    max_fit_error: float
    #: the long run
    long_run_seconds: float
    long_run_stalls: int
    first_stall_after_s: float
    #: projected runtimes per nesting depth (depth -> years)
    projections: List[Tuple[int, float]]
    #: the SafeLang contrast
    safelang_terminated: bool
    safelang_runtime_ns: int
    safelang_stalls: int
    safelang_kernel_healthy: bool


def run(sample_limit: int = 64) -> StallResult:
    """Run the full experiment (fast-forwarded virtual time)."""
    # 1. linearity sweep: single-level loop, varying nr_loops
    sweep: List[Tuple[int, int]] = []
    for nr_loops in (1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        bpf.vm.loop_sample_limit = sample_limit
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=16)
        prog = bpf.load_program(
            _stall_program(nr_loops, depth=1, map_fd=amap.map_fd),
            ProgType.KPROBE, f"stall-{nr_loops}")
        start = kernel.clock.now_ns
        bpf.run_on_current_task(prog)
        sweep.append((nr_loops, kernel.clock.now_ns - start))

    # least-squares through the origin: runtime = slope * nr_loops
    num = sum(n * t for n, t in sweep)
    den = sum(n * n for n, t in sweep)
    slope = num / den
    max_err = max(abs(t - slope * n) / (slope * n) for n, t in sweep)

    # 2. the >=800s run: two nested levels of 2^23
    kernel = Kernel()
    bpf = BpfSubsystem(kernel)
    bpf.vm.loop_sample_limit = sample_limit
    amap = bpf.create_map("array", key_size=4, value_size=8,
                          max_entries=16)
    prog = bpf.load_program(
        _stall_program(1 << 23, depth=2, map_fd=amap.map_fd),
        ProgType.KPROBE, "stall-800s")
    bpf.run_on_current_task(prog)
    long_run_s = kernel.clock.now_seconds
    first_stall = next((e for e in kernel.events.ring
                        if e.kind == "rcu_stall"), None)
    first_stall_s = stalled_ns(first_stall) / NSEC_PER_SEC \
        if first_stall is not None else float("inf")

    # 3. extrapolation by nesting depth (BPF_MAX_LOOPS per level)
    projections = []
    for depth in range(1, 6):
        iterations = float(1 << (23 * depth))
        years = iterations * slope / 1e9 / SECONDS_PER_YEAR
        projections.append((depth, years))

    # 4. the SafeLang contrast
    sl_kernel = Kernel()
    framework = SafeExtensionFramework(sl_kernel,
                                       watchdog_budget_ns=1_000_000)
    sl_bpf = BpfSubsystem(sl_kernel)
    sl_map = sl_bpf.create_map("array", key_size=4, value_size=8,
                               max_entries=16)
    loaded = framework.install(_SAFE_SPIN, "spin", maps=[sl_map])
    start = sl_kernel.clock.now_ns
    sl_result = framework.run_on_packet(loaded, b"pkt")
    sl_runtime = sl_kernel.clock.now_ns - start

    return StallResult(
        sweep=sweep,
        ns_per_iteration=slope,
        max_fit_error=max_err,
        long_run_seconds=long_run_s,
        long_run_stalls=kernel.rcu.stalls,
        first_stall_after_s=first_stall_s,
        projections=projections,
        safelang_terminated=sl_result.terminated,
        safelang_runtime_ns=sl_runtime,
        safelang_stalls=sl_kernel.rcu.stalls,
        safelang_kernel_healthy=sl_kernel.healthy,
    )


def render(result: StallResult) -> str:
    """The experiment artifact."""
    parts = [report.render_table(
        ["nr_loops", "virtual runtime (ms)"],
        [(n, f"{t / 1e6:.3f}") for n, t in result.sweep],
        title="§2.2 termination experiment: runtime vs nr_loops "
              "(single bpf_loop)")]
    parts.append(f"fit: {result.ns_per_iteration:.1f} ns/iteration, "
                 f"max deviation {result.max_fit_error:.1%}")
    parts.append("")
    parts.append(report.render_table(
        ["nesting depth", "projected runtime (years)"],
        [(d, f"{y:.3g}") for d, y in result.projections],
        title="Extrapolation (BPF_MAX_LOOPS iterations per level)"))
    parts.append("")
    parts.append(report.render_table(
        ["condition", "RCU read-lock hold", "stall warnings",
         "terminated by"],
        [("eBPF nested bpf_loop (depth 2)",
          f"{result.long_run_seconds:,.0f} s",
          result.long_run_stalls, "nothing — runs to completion"),
         ("SafeLang while(true) + watchdog",
          f"{result.safelang_runtime_ns / 1e6:.3f} ms",
          result.safelang_stalls,
          "watchdog (trusted cleanup ran)")],
        title="The contrast"))
    parts.append("")
    parts.append("Shape checks:")
    parts.append(report.check(
        f"runtime is linear in nr_loops (max fit error "
        f"{result.max_fit_error:.1%})", result.max_fit_error < 0.15))
    parts.append(report.check(
        f"ran continuously for 800+ seconds under rcu_read_lock "
        f"({result.long_run_seconds:,.0f} s)",
        result.long_run_seconds >= 800))
    parts.append(report.check(
        f"RCU stall warnings observed (first after "
        f"{result.first_stall_after_s:.0f} s)",
        result.long_run_stalls > 0
        and 20 <= result.first_stall_after_s <= 22))
    millions = any(y >= 1e6 for __, y in result.projections)
    parts.append(report.check(
        "deeper nesting projects to millions of years", millions))
    parts.append(report.check(
        "SafeLang loop terminated by the watchdog, kernel healthy, "
        "no stalls",
        result.safelang_terminated and result.safelang_kernel_healthy
        and result.safelang_stalls == 0))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
