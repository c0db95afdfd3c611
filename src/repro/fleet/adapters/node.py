"""One fleet node: a simulated kernel plus its deployment agent.

A :class:`FleetNode` owns one :class:`~repro.kernel.kernel.Kernel`
(stamped from the fleet's shared
:class:`~repro.kernel.spec.KernelSpec`) and the small amount of agent
state a real fleet daemon would keep: the trusted verification key
(which the node's kernel also trusts for load certificates), the
release currently running, the one before it (the rollback target).
Health is *not* polled out of supervisor internals — the node
subscribes to its own kernel's event stream and tracks the last
``health`` transition for the running release's tag, exactly what an
external agent could see.

The agent's public methods — :meth:`FleetNode.deploy`, ``rollback``,
``quarantine``, ``soak``, ``census`` and ``current_release`` — are the
RPCs the control channel (:mod:`repro.fleet.transport`) delivers: an
RPC's method name is the agent method it runs.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.core.signing import SigningKey
from repro.ebpf.loader import BpfSubsystem
from repro.errors import KernelPanic, ReproError
from repro.fleet.ports import DeployResult
from repro.kernel import Kernel, KernelSpec


def soak_payload(run: int) -> bytes:
    """The canonical soak packet for run number ``run``: dst port 80
    (never the filtered port), a run-derived source id, a fixed body —
    deterministic and release-agnostic."""
    return struct.pack("<HB", 80, run & 0xFF) + b"fleet-soak"


class FleetNode:
    """One node of the simulated fleet."""

    def __init__(self, node_id: str, spec: KernelSpec,
                 trusted_key: SigningKey) -> None:
        """Boot one node from the fleet image ``spec``; the node
        trusts releases, and its kernel load certificates, signed by
        ``trusted_key``."""
        self.node_id = node_id
        self.kernel = Kernel.from_spec(spec)
        self.bpf = BpfSubsystem.from_spec(self.kernel,
                                          trusted_key=trusted_key)
        self.trusted_key = trusted_key
        #: the release currently attached (None before preinstall)
        self.current: Optional[object] = None
        #: the rollback target (the release ``current`` replaced)
        self.previous: Optional[object] = None
        self.deploy_failed = False
        #: set by :meth:`quarantine` (the orchestrator parking a node
        #: stuck mid-rollback); cleared by the next successful deploy
        self.operator_quarantined = False
        self._health = "healthy"
        self.kernel.events.subscribe(self._on_health,
                                     kinds=("health",))

    def _tag(self, release: object) -> str:
        """The supervisor/hook tag for a release's program."""
        return f"bpf:{release.name}"

    def _on_health(self, event: object) -> None:
        """Track the running release's supervisor state from the
        event stream (the agent's only health source)."""
        if self.current is not None \
                and event.source == self._tag(self.current):
            self._health = event.get("new")

    # -- deployment -----------------------------------------------------------

    def deploy(self, release: object) -> DeployResult:
        """Check, load and attach one release (§3.1's load-time check).

        The agent re-checks the content hash, the artifact digest and
        the signature itself, so a registry compromise upstream, or a
        certificate or artifacts altered in flight, is refused as
        ``signature`` before anything loads.  The kernel then loads by
        signature: when the release's load certificate vouches for
        this node's own load key and the artifacts it is handed, the
        node runs the release's JIT output and dispatch table by
        reference, with no verifier or build of its own; a node whose
        image differs verifies and builds the program itself."""
        if self.kernel.log.panicked:
            return DeployResult(self.node_id, release.release_id,
                                ok=False, error="dead",
                                detail="kernel panicked")
        if not release.verify(self.trusted_key):
            self.deploy_failed = True
            return DeployResult(self.node_id, release.release_id,
                                ok=False, error="signature",
                                detail="refused unsigned image")
        tag = self._tag(release)
        try:
            prog = self.bpf.load_program(
                list(release.insns), release.prog_type,
                name=release.name, certificate=release.certificate,
                artifacts=release.artifacts)
        except ReproError as exc:
            self.deploy_failed = True
            return DeployResult(self.node_id, release.release_id,
                                ok=False, error="verifier",
                                detail=type(exc).__name__)
        # replace whatever ran before: detach it and decommission its
        # breaker state — the incoming image deserves a fresh slate
        # even when it reuses the outgoing program's tag
        if self.current is not None \
                and self.current.release_id != release.release_id:
            old_tag = self._tag(self.current)
            self.kernel.hooks.detach_everywhere(old_tag, "redeploy")
            self.kernel.soft_reset(
                (old_tag,),
                reason=f"redeploy -> {release.release_id}")
        self.kernel.hooks.detach_everywhere(tag, "redeploy")
        self.bpf.attach_xdp(prog)
        if self.current is not None \
                and self.current.release_id != release.release_id:
            self.previous = self.current
        self.current = release
        self.deploy_failed = False
        self.operator_quarantined = False
        self._health = "healthy"
        return DeployResult(self.node_id, release.release_id, ok=True)

    def rollback(self) -> Optional[str]:
        """Restore the previous release; returns its id or None.

        The sequence matters: detach the suspect program, then
        ``soft_reset`` its tag — clearing the scoped taint *and* the
        supervisor's circuit breaker (half-open trial, quarantine
        backoff) so the restored program starts HEALTHY — then
        redeploy the prior image through :meth:`deploy` (a load-cache
        hit, or its certificate once the cache has evicted it: no
        re-verification on a node of the fleet's image)."""
        if self.previous is None or self.kernel.log.panicked:
            return None
        suspect, target = self.current, self.previous
        if suspect is not None:
            tag = self._tag(suspect)
            self.kernel.hooks.detach_everywhere(tag, "rollback")
            self.kernel.soft_reset(
                (tag,),
                reason=f"rollback {suspect.release_id} -> "
                       f"{target.release_id}")
            self.current = None  # decommissioned; deploy() starts clean
        result = self.deploy(target)
        if not result.ok:
            return None
        # a rolled-back node has no further fallback
        self.previous = None
        return target.release_id

    def quarantine(self, reason: str) -> bool:
        """Park this node: mark the agent operator-quarantined (census
        reports ``quarantined`` until a later deploy clears it) and,
        when the kernel is still alive, quarantine the running
        release's breaker through the supervisor so the program stops
        executing too."""
        self.operator_quarantined = True
        if self.kernel.recovery is not None \
                and self.current is not None \
                and not self.kernel.log.panicked:
            self.kernel.recovery.quarantine(
                self._tag(self.current), reason=reason)
        return True

    # -- observation ----------------------------------------------------------

    def soak(self, runs: int) -> None:
        """Drive ``runs`` canonical packets through the XDP chain
        (supervised dispatch: faults feed the circuit breaker).  A
        kernel panic ends the soak: the node is down, and
        :meth:`census` reads it as ``dead``."""
        try:
            for run in range(runs):
                self.kernel.hooks.deliver_packet(soak_payload(run))
        except KernelPanic:
            pass

    def current_release(self) -> Optional[str]:
        """The release id this node runs (None before preinstall)."""
        return self.current.release_id if self.current else None

    def census(self) -> str:
        """This node's health classification (see
        :data:`~repro.fleet.ports.NODE_STATES`)."""
        if self.kernel.log.panicked or self.kernel.log.tainted:
            return "dead"
        if self.operator_quarantined:
            return "quarantined"
        if self.deploy_failed:
            return "deploy-failed"
        return self._health
