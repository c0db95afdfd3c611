"""The in-process simulated fleet, and the canonical demo scenario.

:class:`SimFleet` is the directory of N
:class:`~repro.fleet.adapters.node.FleetNode` instances, every node
stamped from the same :class:`~repro.kernel.spec.KernelSpec` — one
image, N machines; the control channel delivers each RPC to the node
it names.  :func:`build_scenario` assembles the whole
control plane around it with three published releases of the same
extension:

* ``xdp-filter@1.0.0`` — the preinstalled baseline (pass-all),
* ``xdp-filter@1.1.0`` — the good upgrade (port filter),
* ``xdp-filter@2.0.0`` — the planted bad release: it calls
  ``bpf_ktime_get_ns`` on every packet while the fleet image arms
  that helper site to panic, so every soak run oopses, the
  supervisor contains and quarantines it, and the canary wave fails.

The fault arm rides in the *spec* (the fleet's chaos schedule), not
the release: the same machines run the good release cleanly, which is
exactly what makes the canary signal differential.

The registry's toolchain is booted from the same spec
(:func:`boot_toolchain`), so each release's load certificate binds the
load key every node computes, and the JIT output and dispatch table
the toolchain built are the ones every node would build: no node runs
its verifier, JIT or predecode on a release, and all of them run the
release's one copy of its tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.signing import SigningKey
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.faultinject.plane import FaultAction, NthHit
from repro.fleet.adapters.node import FleetNode
from repro.fleet.journal import OrchestratorCrash, RolloutJournal
from repro.fleet.ports import DeployResult
from repro.fleet.services.aggregate import FleetTelemetry
from repro.fleet.services.orchestrator import (
    RolloutOrchestrator,
    RolloutReport,
)
from repro.fleet.services.registry import Release, ReleaseRegistry
from repro.fleet.transport import FleetTransport
from repro.kernel import Kernel, KernelSpec
from repro.net.programs import XDP_PASS, pass_all_prog, port_filter_prog

#: the helper site the fleet image arms as its planted failure mode
TRIGGER_SITE = "helper.bpf_ktime_get_ns"

#: the extension every scenario release versions
EXTENSION = "xdp-filter"

#: crashes a crash/resume loop survives before it gives up — a safety
#: valve far above any real replay
MAX_RESUMES = 500


def bad_time_prog() -> List[object]:
    """The planted bad release's bytecode: reads the clock on every
    packet, then passes.  Verifier-clean — the badness only exists in
    production, where the fleet image's armed failpoint makes the
    helper call oops."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .mov64_imm(R0, XDP_PASS)
            .exit_()
            .program())


def default_fleet_spec(seed: int) -> KernelSpec:
    """The fleet's node image: 2 CPUs, supervisor attached, the
    trigger site armed to panic on every hit (deterministically —
    no probability involved), seeded from the rollout seed."""
    return KernelSpec(nr_cpus=2, recovery=True).with_faults(
        seed, f"{TRIGGER_SITE}=every:1=panic")


def boot_toolchain(spec: KernelSpec) -> BpfSubsystem:
    """The trusted toolchain's verifier and build for a fleet of
    ``spec`` nodes: a subsystem booted from the node image exactly as
    a node boots (it certifies releases and builds their artifacts; it
    trusts no certificate itself)."""
    return BpfSubsystem.from_spec(Kernel.from_spec(spec))


class SimFleet:
    """The node directory: N simulated kernels, by node id."""

    def __init__(self, size: int, spec: KernelSpec,
                 trusted_key: SigningKey) -> None:
        """Stamp out ``size`` nodes from ``spec``; every node trusts
        releases signed by ``trusted_key``."""
        if size <= 0:
            raise ValueError(f"fleet size must be positive, got {size}")
        self._nodes: Dict[str, FleetNode] = {}
        for index in range(size):
            node_id = f"node-{index:03d}"
            self._nodes[node_id] = FleetNode(
                node_id, spec, trusted_key)

    def node(self, node_id: str) -> FleetNode:
        """Resolve a node id, loudly."""
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown node {node_id!r}")
        return node

    def nodes(self) -> List[FleetNode]:
        """Every node object, in id order (tests iterate this for
        the kernel-isolation leak check)."""
        return [self._nodes[node_id] for node_id in self.node_ids()]

    def node_ids(self) -> List[str]:
        """Every node id, sorted."""
        return sorted(self._nodes)

    def preinstall(self, release: Release) -> List[DeployResult]:
        """Day-0 image: deploy ``release`` to every node outside any
        rollout; raises if a node refuses (a fleet that cannot run
        its baseline is a broken scenario, not an outcome)."""
        results = [node.deploy(release) for node in self.nodes()]
        failed = [r for r in results if not r.ok]
        if failed:
            raise RuntimeError(
                f"baseline preinstall failed on {len(failed)} nodes "
                f"(first: {failed[0].as_dict()})")
        return results

    def current_release(self, node_id: str) -> Optional[str]:
        """The release id a node currently runs, read directly (not
        over the control channel)."""
        return self.node(node_id).current_release()


@dataclass
class FleetScenario:
    """Everything the demo, the CLI and the tests share: a wired
    control plane plus the three canonical releases."""

    fleet: SimFleet
    registry: ReleaseRegistry
    orchestrator: RolloutOrchestrator
    telemetry: FleetTelemetry
    baseline: Release
    good: Release
    bad: Release
    #: the control channel (arm chaos on ``transport.plane``)
    transport: FleetTransport


def build_scenario(size: int, seed: int) -> FleetScenario:
    """Assemble the canonical fleet: boot the toolchain and publish
    the three releases, stamp the fleet from
    :func:`default_fleet_spec`, preinstall the baseline, attach the
    telemetry aggregator, wire the control channel and the
    orchestrator.  The transport's fault plane is seeded and enabled
    (but unarmed — arm a schedule on ``scenario.transport.plane`` to
    put the channel under fire)."""
    spec = default_fleet_spec(seed)
    registry = ReleaseRegistry(boot_toolchain(spec))
    baseline = registry.publish(EXTENSION, "1.0.0",
                                pass_all_prog(), ProgType.XDP)
    good = registry.publish(EXTENSION, "1.1.0",
                            port_filter_prog(), ProgType.XDP)
    bad = registry.publish(EXTENSION, "2.0.0",
                           bad_time_prog(), ProgType.XDP)
    fleet = SimFleet(size, spec, trusted_key=registry.key)
    fleet.preinstall(baseline)
    telemetry = FleetTelemetry()
    telemetry.observe([node.kernel.events for node in fleet.nodes()])
    transport = FleetTransport(fleet, seed=seed)
    transport.plane.enable(seed)
    orchestrator = RolloutOrchestrator(fleet, registry,
                                       telemetry=telemetry,
                                       transport=transport)
    return FleetScenario(
        fleet=fleet, registry=registry, orchestrator=orchestrator,
        telemetry=telemetry, baseline=baseline, good=good, bad=bad,
        transport=transport)


def land_through_crashes(
        scenario: FleetScenario, release_id: str, seed: int,
        crash_every: int, journal: Callable[[], RolloutJournal],
        successor: Callable[[OrchestratorCrash], RolloutOrchestrator],
) -> RolloutReport:
    """The one crash/resume loop: roll ``release_id`` out with
    ``fleet.orch.crash`` killing the orchestrator every ``crash_every``
    journal appends, and resume from ``journal()`` after each crash,
    with the orchestrator ``successor(crash)`` gives, until the rollout
    lands.  Raises ``RuntimeError`` after :data:`MAX_RESUMES` crashes."""
    scenario.transport.plane.arm(
        "fleet.orch.crash", NthHit(crash_every, every=True),
        FaultAction.panic())
    orchestrator = scenario.orchestrator
    crashes = 0
    while True:
        try:
            if crashes == 0:
                return orchestrator.rollout(release_id, seed=seed,
                                            journal=journal())
            return orchestrator.resume(journal())
        except OrchestratorCrash as crash:
            crashes += 1
            if crashes > MAX_RESUMES:
                raise RuntimeError("crash/resume loop never converged")
            orchestrator = successor(crash)
