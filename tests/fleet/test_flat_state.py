"""A long release stream leaves a fleet node holding what a short one
does: per-node state must not grow with the number of rollouts."""

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


def test_indexed_ranges_stay_flat_over_rollouts():
    """Every round soaks packets through each canary's hook chain; the
    skbs those deliveries free must be recycled, not pile up in the
    quarantine, so each node's memory index reads the same after round
    12 as after round 2."""
    scenario = build_scenario(size=4, seed=SEED)
    nodes = scenario.fleet.nodes()
    warm = None
    for index, (good, bad) in enumerate(release_stream(ROUNDS)):
        for major, insns, outcome in ((1, good, "completed"),
                                      (2, bad, "rolled-back")):
            release = scenario.registry.publish(
                EXTENSION, f"{major}.{index + 2}.0", insns, ProgType.XDP)
            report = scenario.orchestrator.rollout(
                release.release_id, seed=SEED * 1000 + index)
            assert report.outcome == outcome
        if index + 1 == WARM_ROUNDS:
            warm = [len(node.kernel.mem._by_base) for node in nodes]
    assert [len(node.kernel.mem._by_base) for node in nodes] == warm
