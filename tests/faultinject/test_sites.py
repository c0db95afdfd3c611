"""Per-site failpoint behavior: each wired site delivers its fault in
the site's native error convention, and panic always goes through the
official panic path (oops recorded, taint set)."""

import pytest

from repro.core.runtime.mempool import MemoryPool
from repro.core.runtime.watchdog import Watchdog
from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.isa import to_u64
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import KernelOops, VerifierError
from repro.faultinject.plane import (
    EINVAL,
    ENOMEM,
    ENOSPC,
    FaultAction,
    NthHit,
    OneShot,
    Probability,
    Scripted,
)
from repro.kernel import Kernel
from repro.kernel.ktime import VirtualClock


def helper_prog():
    """r0 = ktime_get_ns(); exit."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .exit_()
            .program())


@pytest.fixture
def patched(kernel):
    """All-patched subsystem on the shared (leak-checked) kernel."""
    return BpfSubsystem(kernel, bugs=BugConfig.all_patched())


class TestHelperSite:
    def test_errno_becomes_helper_return(self, kernel, patched):
        prog = patched.load_program(helper_prog(), ProgType.KPROBE,
                                    "h")
        kernel.faults.enable(1)
        kernel.faults.arm("helper.bpf_ktime_get_ns", OneShot(),
                          FaultAction.err(EINVAL))
        assert patched.run_on_current_task(prog) == to_u64(-EINVAL)
        # one-shot spent: the next run sees the real helper
        assert patched.run_on_current_task(prog) != to_u64(-EINVAL)

    def test_panic_takes_official_path(self, kernel, patched):
        prog = patched.load_program(helper_prog(), ProgType.KPROBE,
                                    "h")
        kernel.faults.enable(1)
        kernel.faults.arm("helper.*", OneShot(), FaultAction.panic())
        with pytest.raises(KernelOops):
            patched.run_on_current_task(prog)
        assert kernel.log.tainted
        assert [o.category for o in kernel.log.open_oopses] == \
            ["fault-injection"]

    def test_delay_charges_virtual_time(self, kernel, patched):
        prog = patched.load_program(helper_prog(), ProgType.KPROBE,
                                    "h")
        before = kernel.clock.now_ns
        patched.run_on_current_task(prog)
        clean_cost = kernel.clock.now_ns - before
        kernel.faults.enable(1)
        kernel.faults.arm("helper.*", OneShot(),
                          FaultAction.delay(50_000))
        before = kernel.clock.now_ns
        patched.run_on_current_task(prog)
        assert kernel.clock.now_ns - before == clean_cost + 50_000


class TestMapSites:
    def test_update_and_delete_return_errno(self, kernel, patched):
        array = patched.create_map("array", key_size=4, value_size=8,
                                   max_entries=4)
        kernel.faults.enable(1)
        kernel.faults.arm("map.update", OneShot(),
                          FaultAction.err(ENOMEM))
        kernel.faults.arm("map.delete", OneShot(),
                          FaultAction.err(EINVAL))
        assert array.update(b"\x00" * 4, b"\x01" * 8) == -ENOMEM
        assert array.update(b"\x00" * 4, b"\x01" * 8) == 0
        assert array.delete(b"\x00" * 4) == -EINVAL

    def test_lookup_fault_misses(self, kernel, patched):
        array = patched.create_map("array", key_size=4, value_size=8,
                                   max_entries=4)
        assert array.update(b"\x00" * 4, b"\x02" * 8) == 0
        kernel.faults.enable(1)
        kernel.faults.arm("map.lookup", OneShot(),
                          FaultAction.err(ENOMEM))
        assert array.lookup_addr(b"\x00" * 4) is None
        assert array.lookup_addr(b"\x00" * 4) is not None

    def test_hash_alloc_fault(self, kernel, patched):
        table = patched.create_map("hash", key_size=4, value_size=8,
                                   max_entries=4)
        kernel.faults.enable(1)
        kernel.faults.arm("map.alloc", OneShot(),
                          FaultAction.err(ENOMEM))
        assert table.update(b"\x00" * 4, b"\x01" * 8) == -ENOMEM
        assert table.update(b"\x00" * 4, b"\x01" * 8) == 0

    def test_ringbuf_alloc_fault_counts_as_drop(self, kernel,
                                                patched):
        ring = patched.create_map("ringbuf", max_entries=4096)
        kernel.faults.enable(1)
        kernel.faults.arm("map.alloc", OneShot(),
                          FaultAction.err(ENOSPC))
        assert ring.output(b"data") == -ENOSPC
        assert ring.drops == 1
        assert ring.output(b"data") == 0


class TestPoolSite:
    def test_alloc_fault_is_exhaustion(self, kernel):
        pool = MemoryPool(kernel, kernel.current_cpu, size=1024)
        kernel.faults.enable(1)
        kernel.faults.arm("pool.alloc", OneShot(),
                          FaultAction.err(ENOMEM))
        assert pool.alloc(64) is None
        assert pool.failed_allocs == 1
        assert pool.alloc(64) is not None
        pool.reset()


class TestWatchdogSite:
    def arm_dog(self, kernel, schedule, action):
        """A watchdog on the kernel clock with one fault rule armed."""
        kernel.faults.enable(1)
        kernel.faults.arm("watchdog.fire", schedule, action)
        dog = Watchdog(kernel.clock, budget_ns=100,
                       faults=kernel.faults)
        dog.arm()
        return dog

    def test_delay_defers_delivery_without_losing_it(self, kernel):
        dog = self.arm_dog(kernel, OneShot(),
                           FaultAction.delay(500))
        kernel.clock.advance(100)
        assert not dog.fired  # first delivery eaten by the delay
        kernel.clock.advance(499)
        assert not dog.fired
        kernel.clock.advance(1)
        assert dog.fired      # delayed, never lost
        dog.disarm()

    def test_errno_suppresses_one_delivery(self, kernel):
        dog = self.arm_dog(kernel, Scripted([1]),
                           FaultAction.err(EINVAL))
        kernel.clock.advance(100)
        assert not dog.fired
        kernel.clock.advance(1)
        assert dog.fired
        dog.disarm()


class TestRcuSite:
    def test_delay_stretches_grace_period(self, kernel):
        base = kernel.clock.now_ns
        kernel.rcu.synchronize()
        clean = kernel.clock.now_ns - base
        kernel.faults.enable(1)
        kernel.faults.arm("rcu.synchronize", OneShot(),
                          FaultAction.delay(1_000_000))
        base = kernel.clock.now_ns
        kernel.rcu.synchronize()
        assert kernel.clock.now_ns - base == clean + 1_000_000


class TestLoadSites:
    def test_verify_errno_rejects(self, kernel, patched):
        kernel.faults.enable(1)
        kernel.faults.arm("load.verify", OneShot(),
                          FaultAction.err(EINVAL))
        with pytest.raises(VerifierError, match="injected"):
            patched.load_program(helper_prog(), ProgType.KPROBE, "p")
        patched.load_program(helper_prog(), ProgType.KPROBE, "p")

    @pytest.mark.dirty_kernel
    def test_verify_panic_oopses(self, kernel, patched):
        kernel.faults.enable(1)
        kernel.faults.arm("load.verify", OneShot(),
                          FaultAction.panic())
        with pytest.raises(KernelOops):
            patched.load_program(helper_prog(), ProgType.KPROBE, "p")
        assert kernel.log.tainted
        assert kernel.log.open_oopses[0].category == "fault-injection"

    def test_signature_fault_fails_install(self, kernel):
        from repro.core.loader import SafeLoader
        from repro.core.toolchain import TrustedToolchain
        from repro.errors import SignatureError
        toolchain = TrustedToolchain()
        loader = SafeLoader(kernel,
                            {toolchain.key.key_id: toolchain.key})
        ext = toolchain.compile(
            "fn prog(ctx: XdpCtx) -> i64 { return 0; }", "e")
        kernel.faults.enable(1)
        kernel.faults.arm("load.signature", OneShot(),
                          FaultAction.err(EINVAL))
        with pytest.raises(SignatureError, match="injected"):
            loader.load(ext)
        loader.load(ext)


class TestTelemetryIntegration:
    def test_faults_counted_and_traced(self, kernel, patched):
        kernel.telemetry.enable()
        prog = patched.load_program(helper_prog(), ProgType.KPROBE,
                                    "h")
        kernel.faults.enable(1)
        kernel.faults.arm("helper.*", NthHit(1), FaultAction.err(
            EINVAL))
        patched.run_on_current_task(prog)
        events = kernel.telemetry.trace.events(kind="fault")
        assert len(events) == 1
        assert events[0].data["action"] == "errno:EINVAL"

    def test_probability_uses_plane_rng_only(self, kernel, patched):
        # two planes with the same seed make identical decisions even
        # with interleaved global random usage
        import random
        decisions = []
        for _ in range(2):
            k = Kernel()
            k.faults.enable(9)
            k.faults.arm("s", Probability(0.5),
                         FaultAction.err(EINVAL))
            random.random()  # global RNG noise must not matter
            decisions.append(
                [k.faults.check("s") is not None for _ in range(30)])
        assert decisions[0] == decisions[1]
