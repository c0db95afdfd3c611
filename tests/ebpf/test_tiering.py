"""The VM's tier rule, and why nobody can see it act.

A program runs on ``fast`` until its run count passes
``COMPILE_AFTER_RUNS``, then on ``compiled``; it starts compiled when
the load cache already holds a compiled artifact for its bytes.  The
switch happens between runs, so every run must observe exactly what a
VM pinned to the ``interp`` reference observes: return value,
instructions executed, virtual clock and live stack frames.
"""

import itertools

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.ebpf.interpreter import COMPILE_AFTER_RUNS
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R6, R7, R10
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.programs import XDP_ABORTED, XDP_PASS, firewall_prog

RUNS = 2 * COMPILE_AFTER_RUNS + 1


def busy_prog():
    """A loop, a clock read, stack traffic and a subprogram frame: every
    place where the tiers flush their batched accounting."""
    return (Asm()
            .st_imm(8, R10, -8, 0)
            .mov64_imm(R6, 0)
            .mov64_imm(R7, 5)
            .label("loop")
            .alu64_reg("add", R6, R7)
            .alu64_imm("sub", R7, 1)
            .jmp_imm("jne", R7, 0, "loop")
            .call(ids.BPF_FUNC_ktime_get_ns)
            .stx(8, R10, -8, R0)
            .call_subprog("sub")
            .ldx(8, R1, R10, -8)
            .alu64_reg("add", R0, R1)
            .alu64_reg("add", R0, R6)
            .exit_()
            .label("sub")
            .st_imm(8, R10, -8, 0x22)
            .ldx(8, R0, R10, -8)
            .exit_()
            .program())


def root_prog(prog_array_fd):
    """XDP root: tail-call packets from source 3 into slot 0, pass the
    rest.  Falling through a failed tail call aborts."""
    return (Asm()
            .mov64_reg(R6, R1)
            .ldx(8, R2, R1, 8)            # data
            .ldx(8, R3, R1, 16)           # data_end
            .mov64_reg(R4, R2).alu64_imm("add", R4, 3)
            .jmp_reg("jgt", R4, R3, "pass")
            .ldx(1, R5, R2, 2)            # src_id
            .jmp_imm("jne", R5, 3, "pass")
            .mov64_reg(R1, R6)
            .ld_map_fd(R2, prog_array_fd)
            .mov64_imm(R3, 0)
            .call(ids.BPF_FUNC_tail_call)
            .mov64_imm(R0, XDP_ABORTED)
            .exit_()
            .label("pass")
            .mov64_imm(R0, XDP_PASS)
            .exit_()
            .program())


def stack_frames(kernel):
    return sorted(a.base for a in kernel.mem.live_allocations()
                  if a.type_name == "bpf_stack")


def observe(bpf, ret):
    kernel = bpf.kernel
    return (ret, bpf.vm.insns_executed, kernel.clock.now_ns,
            stack_frames(kernel))


def test_tier_switch_is_invisible_on_direct_runs(leakcheck):
    picked = BpfSubsystem(Kernel())
    pinned = BpfSubsystem(Kernel(), engine="interp")
    progs = []
    for bpf in (picked, pinned):
        leakcheck(bpf.kernel)
        progs.append(bpf.load_program(busy_prog(), ProgType.KPROBE,
                                      "busy"))
    prog = progs[0]
    for run in range(1, RUNS + 1):
        seen = [observe(bpf, bpf.run_on_current_task(p))
                for bpf, p in zip((picked, pinned), progs)]
        assert seen[0] == seen[1], run
        assert prog.runs == run
        hot = run > COMPILE_AFTER_RUNS
        assert picked.vm.tier(prog) == ("compiled" if hot else "fast")
        assert picked.vm.compiles == int(hot)
    assert pinned.vm.compiles == 0
    assert pinned.vm.tier(progs[1]) == "interp"


def firewall_chain(engine):
    kernel = Kernel(nr_cpus=2)
    bpf = BpfSubsystem(kernel, engine=engine)
    plane = DataPlane(kernel, bpf)
    nic = plane.create_nic(1, "fw0", queue_depth=512)
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    progs = bpf.create_map("prog_array", max_entries=1)
    target = bpf.load_program(firewall_prog(stats.map_fd), ProgType.XDP,
                              "firewall")
    progs.set_prog(0, target)
    root = bpf.load_program(root_prog(progs.map_fd), ProgType.XDP,
                            "root")
    plane.attach(root, nic)
    return bpf, plane, nic, root, target


def test_tier_switch_is_invisible_in_the_data_plane(leakcheck):
    chains = [firewall_chain(None), firewall_chain("interp")]
    # each kernel gets its own generator: emitting a packet advances
    # that kernel's clock by the inter-arrival gap
    sources = [LoadGen(bpf.kernel, "heavy_hitter", seed=5).packets(
        6 * COMPILE_AFTER_RUNS) for bpf, *__ in chains]
    for bpf, *__ in chains:
        leakcheck(bpf.kernel)
    offered = tail_called = 0
    while True:
        seen = []
        for (bpf, plane, nic, *__), source in zip(chains, sources):
            chunk = list(itertools.islice(source,
                                          COMPILE_AFTER_RUNS // 2))
            for payload in chunk:
                nic.receive(payload)
            plane.process_all()
            seen.append((chunk, dict(plane.verdicts), plane.drain(),
                         plane.signature(), bpf.vm.insns_executed,
                         bpf.kernel.clock.now_ns,
                         stack_frames(bpf.kernel)))
        assert seen[0] == seen[1]
        if not chunk:
            break
        offered += len(chunk)
        tail_called += sum(len(p) >= 3 and p[2] == 3 for p in chunk)
        bpf, __, __, root, target = chains[0]
        # each packet enters the root once, and the target once per
        # tail call; re-binding the root after a tail call is no entry
        assert (root.runs, target.runs) == (offered, tail_called)
        assert bpf.vm.compiles == sum(
            p.runs > COMPILE_AFTER_RUNS for p in (root, target))
    bpf, __, __, root, target = chains[0]
    assert target.runs > COMPILE_AFTER_RUNS
    assert bpf.vm.compiles == 2
    assert bpf.vm.tier(root) == bpf.vm.tier(target) == "compiled"
    assert chains[1][0].vm.compiles == 0


def test_pinned_vm_never_changes_tier():
    for engine in ("interp", "fast"):
        bpf = BpfSubsystem(Kernel(), engine=engine)
        prog = bpf.load_program(busy_prog(), ProgType.KPROBE, "busy")
        for __ in range(RUNS):
            bpf.run_on_current_task(prog)
        assert bpf.vm.tier(prog) == engine
        assert bpf.vm.compiles == 0
        assert prog.compiled is None


def test_pinned_compiled_compiles_on_first_run():
    bpf = BpfSubsystem(Kernel(), engine="compiled")
    prog = bpf.load_program(busy_prog(), ProgType.KPROBE, "busy")
    assert prog.compiled is None
    bpf.run_on_current_task(prog)
    assert prog.compiled is not None
    assert bpf.vm.compiles == 1
    for __ in range(RUNS):
        bpf.run_on_current_task(prog)
    assert bpf.vm.compiles == 1


def test_reload_of_hot_bytes_starts_compiled():
    bpf = BpfSubsystem(Kernel())
    hot = bpf.load_program(busy_prog(), ProgType.KPROBE, "hot")
    for __ in range(COMPILE_AFTER_RUNS + 1):
        bpf.run_on_current_task(hot)
    assert bpf.vm.compiles == 1
    reload = bpf.load_program(busy_prog(), ProgType.KPROBE, "again")
    assert reload.verifier_stats.from_cache
    assert reload.compiled is hot.compiled
    assert bpf.vm.tier(reload) == "compiled"
    bpf.run_on_current_task(reload)
    assert bpf.vm.compiles == 1


def test_reload_of_cold_bytes_compiles_nothing():
    bpf = BpfSubsystem(Kernel())
    cold = bpf.load_program(busy_prog(), ProgType.KPROBE, "cold")
    for __ in range(COMPILE_AFTER_RUNS):
        bpf.run_on_current_task(cold)
    reload = bpf.load_program(busy_prog(), ProgType.KPROBE, "again")
    assert reload.verifier_stats.from_cache
    assert reload.compiled is None
    assert bpf.vm.tier(reload) == "fast"
    for __ in range(COMPILE_AFTER_RUNS):
        bpf.run_on_current_task(reload)
    assert bpf.vm.compiles == 0
