"""The in-process simulated fleet, and the canonical demo scenario.

:class:`SimFleet` implements :class:`~repro.fleet.ports.FleetPort`
over N :class:`~repro.fleet.adapters.node.FleetNode` instances, every
node stamped from the same :class:`~repro.kernel.spec.KernelSpec` —
one image, N machines.  :func:`build_scenario` assembles the whole
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.signing import SigningKey
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0
from repro.ebpf.progs import ProgType
from repro.fleet.adapters.node import FleetNode
from repro.fleet.ports import DeployResult, FleetPort
from repro.fleet.services.aggregate import FleetTelemetry
from repro.fleet.services.orchestrator import RolloutOrchestrator
from repro.fleet.services.registry import Release, ReleaseRegistry
from repro.fleet.transport import FleetTransport, RetryPolicy
from repro.kernel import KernelSpec
from repro.net.programs import XDP_PASS, pass_all_prog, port_filter_prog

#: the helper site the fleet image arms as its planted failure mode
TRIGGER_SITE = "helper.bpf_ktime_get_ns"

#: the extension every scenario release versions
EXTENSION = "xdp-filter"


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


class SimFleet(FleetPort):
    """N simulated kernels behind the fleet port."""

    def __init__(self, size: int, spec: KernelSpec,
                 trusted_key: SigningKey,
                 node_prefix: str = "node") -> None:
        """Stamp out ``size`` nodes from ``spec``; every node trusts
        releases signed by ``trusted_key``."""
        if size <= 0:
            raise ValueError(f"fleet size must be positive, got {size}")
        self._nodes: Dict[str, FleetNode] = {}
        for index in range(size):
            node_id = f"{node_prefix}-{index:03d}"
            self._nodes[node_id] = FleetNode(
                node_id, spec, trusted_key)

    def _node(self, node_id: str) -> FleetNode:
        """Resolve a node id, loudly."""
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown node {node_id!r}")
        return node

    def nodes(self) -> List[FleetNode]:
        """Every node object, in id order (tests iterate this for
        the kernel-isolation leak check)."""
        return [self._nodes[node_id] for node_id in self.node_ids()]

    def preinstall(self, release: Release) -> List[DeployResult]:
        """Day-0 image: deploy ``release`` to every node outside any
        rollout; raises if a node refuses (a fleet that cannot run
        its baseline is a broken scenario, not an outcome)."""
        results = [self._node(node_id).deploy(release)
                   for node_id in self.node_ids()]
        failed = [r for r in results if not r.ok]
        if failed:
            raise RuntimeError(
                f"baseline preinstall failed on {len(failed)} nodes "
                f"(first: {failed[0].as_dict()})")
        return results

    # -- FleetPort ------------------------------------------------------------

    def node_ids(self) -> List[str]:
        """Every node id, sorted."""
        return sorted(self._nodes)

    def deploy(self, node_id: str, release: Release) -> DeployResult:
        """Push a release to one node (see
        :meth:`~repro.fleet.adapters.node.FleetNode.deploy`)."""
        return self._node(node_id).deploy(release)

    def rollback(self, node_id: str) -> Optional[str]:
        """Restore one node's previous release."""
        return self._node(node_id).rollback()

    def quarantine(self, node_id: str, reason: str) -> bool:
        """Park one node (stuck mid-rollback: quarantined, not
        forgotten)."""
        return self._node(node_id).quarantine(reason)

    def soak(self, node_id: str, runs: int) -> None:
        """Drive canonical soak traffic through one node."""
        self._node(node_id).soak(runs)

    def census(self, node_id: str) -> str:
        """One node's health classification."""
        return self._node(node_id).census()

    def current_release(self, node_id: str) -> Optional[str]:
        """The release id a node currently runs."""
        node = self._node(node_id)
        return node.current.release_id if node.current else None

    def subscribe(self, node_id: str,
                  handler: Callable[[object], None],
                  kinds: Optional[Tuple[str, ...]] = None) -> object:
        """Subscribe to one node's kernel event stream."""
        return self._node(node_id).kernel.events.subscribe(
            handler, kinds=kinds)

    def snapshot(self, node_id: str) -> Dict[str, object]:
        """One node's telemetry roll-up."""
        return self._node(node_id).snapshot()


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


def build_scenario(size: int, seed: int,
                   retry_policy: Optional[RetryPolicy] = None,
                   ) -> FleetScenario:
    """Assemble the canonical fleet: publish the three releases,
    stamp the fleet from :func:`default_fleet_spec`, preinstall the
    baseline, attach the telemetry aggregator, wire the control
    channel and the orchestrator.  The transport's fault plane is
    seeded and enabled (but unarmed — arm a schedule on
    ``scenario.transport.plane`` to put the channel under fire)."""
    registry = ReleaseRegistry()
    baseline = registry.publish(EXTENSION, "1.0.0",
                                pass_all_prog(), ProgType.XDP)
    good = registry.publish(EXTENSION, "1.1.0",
                            port_filter_prog(), ProgType.XDP)
    bad = registry.publish(EXTENSION, "2.0.0",
                           bad_time_prog(), ProgType.XDP)
    fleet = SimFleet(size, default_fleet_spec(seed),
                     trusted_key=registry.key)
    fleet.preinstall(baseline)
    telemetry = FleetTelemetry()
    telemetry.observe(fleet)
    transport = FleetTransport(fleet, policy=retry_policy, seed=seed)
    transport.plane.enable(seed)
    orchestrator = RolloutOrchestrator(fleet, registry,
                                       telemetry=telemetry,
                                       transport=transport)
    return FleetScenario(
        fleet=fleet, registry=registry, orchestrator=orchestrator,
        telemetry=telemetry, baseline=baseline, good=good, bad=bad,
        transport=transport)
