"""End-to-end telemetry: both frameworks reporting into one hub."""

import pytest

from repro.core import SafeExtensionFramework
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel
from repro.telemetry import (parse_json, parse_prometheus, to_json,
                             to_prometheus)


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def bpf(kernel):
    return BpfSubsystem(kernel)


@pytest.fixture
def fw(kernel):
    return SafeExtensionFramework(kernel)


def alu_prog():
    asm = Asm().mov64_imm(R0, 0)
    for i in range(8):
        asm.alu64_imm("add", R0, i)
    return asm.exit_().program()


SPIN = """
fn prog(ctx: XdpCtx) -> i64 {
    let mut i: u64 = 0;
    while true { i = i + 1; if i == 0 { break; } }
    return 0;
}
"""


class TestEbpfRunStats:
    def test_run_stats_gated_off_by_default(self, kernel, bpf):
        prog = bpf.load_program(alu_prog(), ProgType.KPROBE, "cold")
        bpf.run_on_current_task(prog)
        row = kernel.telemetry.prog("ebpf", "cold")
        assert row.run_cnt == 0
        assert row.run_time_ns == 0
        assert kernel.telemetry.trace.events(kind="run") == []
        # ...but the load pipeline is always accounted
        assert row.loads == 1

    def test_run_stats_when_enabled(self, kernel, bpf):
        kernel.telemetry.enable()
        prog = bpf.load_program(alu_prog(), ProgType.KPROBE, "hot")
        before = kernel.clock.now_ns
        bpf.run_on_current_task(prog)
        bpf.run_on_current_task(prog)
        elapsed = kernel.clock.now_ns - before
        row = kernel.telemetry.prog("ebpf", "hot")
        assert row.run_cnt == 2
        assert row.insns == 2 * 10      # 1 mov + 8 alu + exit
        # virtual run time is exactly the clock the program consumed
        assert row.run_time_ns == elapsed
        assert row.avg_run_time_ns == elapsed / 2
        assert len(kernel.telemetry.trace.events(kind="run")) == 2

    def test_registry_counters_match_rows(self, kernel, bpf):
        kernel.telemetry.enable()
        prog = bpf.load_program(alu_prog(), ProgType.KPROBE, "hot")
        bpf.run_on_current_task(prog)
        fam = kernel.telemetry.registry.get("repro_prog_runs_total")
        assert fam.labels("ebpf", "hot").value == 1

    def test_helper_calls_counted_by_symbol(self, kernel, bpf):
        kernel.telemetry.enable()
        asm = (Asm().call(ids.BPF_FUNC_ktime_get_ns)
               .call(ids.BPF_FUNC_ktime_get_ns)
               .call(ids.BPF_FUNC_get_current_pid_tgid).exit_())
        prog = bpf.load_program(asm.program(), ProgType.KPROBE, "h")
        bpf.run_on_current_task(prog)
        row = kernel.telemetry.prog("ebpf", "h")
        assert row.helper_calls == 3
        assert row.helper_counts["bpf_ktime_get_ns"] == 2
        assert row.helper_counts["bpf_get_current_pid_tgid"] == 1
        events = kernel.telemetry.trace.events(kind="helper")
        assert len(events) == 3

    def test_disable_stops_recording(self, kernel, bpf):
        kernel.telemetry.enable()
        prog = bpf.load_program(alu_prog(), ProgType.KPROBE, "p")
        bpf.run_on_current_task(prog)
        kernel.telemetry.disable()
        bpf.run_on_current_task(prog)
        assert kernel.telemetry.prog("ebpf", "p").run_cnt == 1


class TestLoadPipelineStats:
    def test_cache_miss_then_hit(self, kernel, bpf):
        bpf.load_program(alu_prog(), ProgType.KPROBE, "a")
        bpf.load_program(alu_prog(), ProgType.KPROBE, "b")
        loads = kernel.telemetry.registry.get("repro_loads_total")
        assert loads.labels("ebpf", "miss").value == 1
        assert loads.labels("ebpf", "hit").value == 1
        row_a = kernel.telemetry.prog("ebpf", "a")
        row_b = kernel.telemetry.prog("ebpf", "b")
        assert (row_a.loads, row_a.cache_hits) == (1, 0)
        assert (row_b.loads, row_b.cache_hits) == (1, 1)

    def test_stage_timings_recorded_on_miss(self, kernel, bpf):
        bpf.load_program(alu_prog(), ProgType.KPROBE, "a")
        row = kernel.telemetry.prog("ebpf", "a")
        assert row.verify_ns > 0
        assert row.jit_ns > 0
        assert row.predecode_ns > 0
        assert row.verifier_insns_processed > 0
        assert row.verifier_states_explored > 0

    def test_verifier_work_not_double_counted_on_hit(self, kernel,
                                                     bpf):
        bpf.load_program(alu_prog(), ProgType.KPROBE, "a")
        work = kernel.telemetry.registry.get(
            "repro_verifier_work_total")
        after_miss = work.labels("insns_processed").value
        bpf.load_program(alu_prog(), ProgType.KPROBE, "b")
        assert work.labels("insns_processed").value == after_miss
        assert kernel.telemetry.prog(
            "ebpf", "b").verifier_insns_processed == 0

    def test_load_trace_events(self, kernel, bpf):
        bpf.load_program(alu_prog(), ProgType.KPROBE, "a")
        events = kernel.telemetry.trace.events(kind="load")
        assert len(events) == 1
        assert events[0].data["cache_hit"] is False


def distinct_prog(n):
    """Program ``n`` of a family of distinct programs."""
    return Asm().mov64_imm(R0, n).exit_().program()


class TestLiveProgramGauge:
    """``repro_progs_loaded`` counts live programs, not loads."""

    def live(self, kernel, framework):
        return kernel.telemetry.registry.get(
            "repro_progs_loaded").labels(framework).value

    def test_held_programs_count(self, kernel, bpf):
        held = [bpf.load_program(distinct_prog(n), ProgType.KPROBE,
                                 f"p{n}") for n in range(50)]
        assert self.live(kernel, "ebpf") == 50 == len(bpf.all_progs())
        assert len(held) == 50

    def test_dropped_programs_leave_the_count(self, kernel, bpf):
        for n in range(50):
            bpf.load_program(distinct_prog(n), ProgType.KPROBE, f"p{n}")
        assert bpf.all_progs() == []
        assert self.live(kernel, "ebpf") == 0
        loads = kernel.telemetry.registry.get("repro_loads_total")
        assert loads.labels("ebpf", "miss").value == 50

    def test_a_freed_program_leaves_the_count(self, kernel, bpf):
        kept = bpf.load_program(alu_prog(), ProgType.KPROBE, "a")
        dropped = bpf.load_program(alu_prog(), ProgType.KPROBE, "b")
        assert self.live(kernel, "ebpf") == 2
        del dropped
        assert self.live(kernel, "ebpf") == 1
        assert bpf.all_progs() == [kept]

    def test_safelang_extensions_count_while_held(self, kernel, fw):
        held = fw.install(
            "fn prog(ctx: XdpCtx) -> i64 { return 1; }", "ext")
        assert self.live(kernel, "safelang") == 1
        del held
        assert self.live(kernel, "safelang") == 0


class TestSafelangStats:
    def test_run_stats_when_enabled(self, kernel, fw):
        kernel.telemetry.enable()
        loaded = fw.install(
            "fn prog(ctx: XdpCtx) -> i64 { return 40 + 2; }", "s")
        before = kernel.clock.now_ns
        result = fw.run_on_packet(loaded, b"x")
        elapsed = kernel.clock.now_ns - before
        assert result.value == 42
        row = kernel.telemetry.prog("safelang", "s")
        assert row.run_cnt == 1
        assert row.run_time_ns == elapsed
        assert row.insns == result.steps

    def test_load_recorded_always(self, kernel, fw):
        fw.install("fn prog(ctx: XdpCtx) -> i64 { return 0; }", "s")
        row = kernel.telemetry.prog("safelang", "s")
        assert row.loads == 1
        assert row.verify_ns > 0    # signature check + fixup time

    def test_watchdog_fire_counted(self, kernel, fw):
        loaded = fw.install(SPIN, "spin", watchdog_budget_ns=10_000)
        result = fw.run_on_packet(loaded, b"x")
        assert result.terminated
        row = kernel.telemetry.prog("safelang", "spin")
        assert row.watchdog_fires == 1
        kills = kernel.telemetry.trace.events(kind="watchdog_kill")
        assert len(kills) == 1
        assert kills[0].data["budget_ns"] == 10_000

    def test_watchdog_kill_is_one_event(self, kernel, fw):
        """The kill is one event, and its dmesg line renders from it."""
        loaded = fw.install(SPIN, "spin", watchdog_budget_ns=10_000)
        before = sum(kernel.events.emitted.values())
        fw.run_on_packet(loaded, b"x")
        assert sum(kernel.events.emitted.values()) - before == 1
        event = kernel.events.ring[-1]
        assert (event.kind, event.source) == \
            ("watchdog_kill", "safelang:spin")
        assert event.lines() == (
            "watchdog: extension 'spin' exceeded its 10000ns budget, "
            "terminating",)
        assert kernel.log.records[-1] is event

    def test_watchdog_fire_counted_even_with_stats_off(self, kernel,
                                                       fw):
        assert not kernel.telemetry.stats_enabled
        loaded = fw.install(SPIN, "spin", watchdog_budget_ns=10_000)
        fw.run_on_packet(loaded, b"x")
        assert kernel.telemetry.prog(
            "safelang", "spin").watchdog_fires == 1

    def test_panic_counted(self, kernel, fw):
        loaded = fw.install(
            "fn prog(ctx: XdpCtx) -> i64 { let z: u64 = 0; "
            "return (5 / z) as i64; }", "boom")
        result = fw.run_on_packet(loaded, b"x")
        assert result.panicked
        assert kernel.telemetry.prog("safelang", "boom").panics == 1

    def test_budget_passes_through_without_vm_mutation(self, kernel,
                                                       fw):
        """The per-extension budget travels with the call; the shared
        VM default is never touched (the re-entrancy fix)."""
        default = fw.vm.watchdog_budget_ns
        tight = fw.install(SPIN, "tight", watchdog_budget_ns=10_000)
        seen = []
        kernel.events.subscribe(
            lambda e: seen.append(fw.vm.watchdog_budget_ns),
            kinds=("watchdog_kill",))
        fw.run_on_packet(tight, b"x")
        # even at the instant the watchdog fired, the VM default was
        # untouched — nested runs would each keep their own budget
        assert seen == [default]
        assert fw.vm.watchdog_budget_ns == default


class TestFailureAccounting:
    def test_oops_attributed_to_program(self, kernel, bpf):
        bpf.load_program(alu_prog(), ProgType.KPROBE, "crasher")
        kernel.log.record_oops(
            kernel.clock.now_ns, "wild write",
            category="page_fault", source="bpf:crasher")
        row = kernel.telemetry.prog("ebpf", "crasher")
        assert row.oopses == 1
        fam = kernel.telemetry.registry.get("repro_oops_total")
        assert fam.labels("page_fault", "bpf:crasher").value == 1
        events = kernel.telemetry.trace.events(kind="oops")
        assert len(events) == 1

    def test_oops_without_matching_program(self, kernel):
        kernel.log.record_oops(0, "bad", category="page_fault",
                               source="module:rogue")
        fam = kernel.telemetry.registry.get("repro_oops_total")
        assert fam.labels("page_fault", "module:rogue").value == 1

    def test_pool_exhaustion_counted(self, kernel):
        from repro.core.runtime.mempool import MemoryPool
        pool = MemoryPool(kernel, kernel.cpus[0], size=16)
        assert pool.alloc(64) is None
        fam = kernel.telemetry.registry.get(
            "repro_pool_alloc_failures_total")
        assert fam.labels("0").value == 1
        pool.destroy()


class TestExportRoundTrip:
    def test_prometheus_round_trip(self, kernel, bpf):
        kernel.telemetry.enable()
        prog = bpf.load_program(alu_prog(), ProgType.KPROBE, "hot")
        bpf.run_on_current_task(prog)
        bpf.run_on_current_task(prog)
        parsed = parse_prometheus(to_prometheus(kernel.telemetry))
        assert parsed[
            'repro_prog_runs_total{framework="ebpf",prog="hot"}'] == 2
        assert parsed[
            'repro_loads_total{framework="ebpf",cache="miss"}'] == 1
        # histogram invariants: +Inf bucket == count
        inf = parsed['repro_run_time_ns_bucket{framework="ebpf",'
                     'le="+Inf"}']
        assert inf == parsed['repro_run_time_ns_count{framework='
                             '"ebpf"}'] == 2

    def test_json_round_trip(self, kernel, bpf, fw):
        kernel.telemetry.enable()
        prog = bpf.load_program(alu_prog(), ProgType.KPROBE, "p")
        bpf.run_on_current_task(prog)
        loaded = fw.install(
            "fn prog(ctx: XdpCtx) -> i64 { return 1; }", "s")
        fw.run_on_packet(loaded, b"x")
        doc = parse_json(to_json(kernel.telemetry))
        assert doc["stats_enabled"] is True
        frameworks = {row["framework"]: row["name"]
                      for row in doc["progs"]}
        assert frameworks == {"ebpf": "p", "safelang": "s"}
        names = [f["name"] for f in doc["metrics"]]
        assert names == sorted(names)
        assert doc["trace"]["emitted"] > 0
