"""A long release stream leaves a fleet node holding what a short one
does: per-node state must not grow with the number of rollouts, in
memory or in the kernel log."""

from random import Random

from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R6
from repro.ebpf.progs import ProgType
from repro.fleet.adapters.sim import EXTENSION, build_scenario
from repro.net.programs import XDP_PASS, port_filter_prog

SEED = 3
ROUNDS = 12
WARM_ROUNDS = 2


def release_stream(rounds):
    """(good, bad) bytecode per round, each distinct from every other
    release: the good one filters a seeded port, the bad one reads the
    armed clock helper after a seeded constant."""
    ports = Random(f"flat-state:{SEED}").sample(range(1024, 65536), rounds)
    return [(port_filter_prog(port),
             Asm().mov64_imm(R6, port)
             .call(ids.BPF_FUNC_ktime_get_ns)
             .mov64_imm(R0, XDP_PASS).exit_().program())
            for port in ports]


def drive_rounds():
    """Drive the release stream; per round, each node's count of
    indexed ranges and its log's open oopses, oops total and
    containments."""
    scenario = build_scenario(size=4, seed=SEED)
    nodes = scenario.fleet.nodes()
    seen = []
    for index, (good, bad) in enumerate(release_stream(ROUNDS)):
        for major, insns, outcome in ((1, good, "completed"),
                                      (2, bad, "rolled-back")):
            release = scenario.registry.publish(
                EXTENSION, f"{major}.{index + 2}.0", insns, ProgType.XDP)
            report = scenario.orchestrator.rollout(
                release.release_id, seed=SEED * 1000 + index)
            assert report.outcome == outcome
        seen.append([(len(node.kernel.mem._by_base),
                      len(node.kernel.log.open_oopses),
                      node.kernel.log.oops_total,
                      node.kernel.log.contained) for node in nodes])
    return seen


def test_indexed_ranges_stay_flat_over_rollouts():
    """Every round soaks packets through each canary's hook chain; the
    skbs those deliveries free must be recycled, not pile up in the
    quarantine, so each node's memory index reads the same after round
    12 as after round 2."""
    ranges = [[node[0] for node in nodes] for nodes in drive_rounds()]
    assert ranges[-1] == ranges[WARM_ROUNDS - 1]


def test_contained_oopses_are_counted_not_kept():
    """Each bad release oopses on its canaries and each oops is
    contained, so after every round no node holds an oops record and
    each node's count of oopses equals its count of containments."""
    rounds = drive_rounds()
    for nodes in rounds:
        for __, still_open, total, contained in nodes:
            assert still_open == 0
            assert total == contained
    assert sum(node[2] for node in rounds[-1]) > \
        sum(node[2] for node in rounds[WARM_ROUNDS - 1]) > 0
