"""The vocabulary the control plane and its nodes share.

A node answers a rollout's RPCs with values from this module: a
:class:`DeployResult` for each deploy, and one of
:data:`NODE_STATES` for each health census.  The services in
:mod:`repro.fleet.services` read them without importing a
:class:`Kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: the health census vocabulary, in escalating order of trouble.
#: ``healthy``/``degraded``/``quarantined`` mirror the supervisor's
#: :class:`~repro.recovery.supervisor.HealthState`; ``deploy-failed``
#: marks a node that refused or failed the release (bad signature,
#: verifier rejection); ``unreachable`` marks a node the control
#: channel could not raise within its retry budget (a *transport*
#: verdict the orchestrator assigns — the node itself may be fine on
#: the far side of a partition); ``dead`` marks a panicked or tainted
#: kernel.
NODE_STATES: Tuple[str, ...] = (
    "healthy", "degraded", "quarantined", "deploy-failed",
    "unreachable", "dead")

#: census states the canary counts against a release's *health*;
#: ``unreachable`` is deliberately not here — it counts against the
#: wave's separate unreachable budget (you cannot blame a release for
#: a partition, but you also cannot certify a wave you cannot see)
UNHEALTHY_STATES: Tuple[str, ...] = (
    "degraded", "quarantined", "deploy-failed", "dead")


@dataclass(frozen=True)
class DeployResult:
    """Outcome of pushing one release to one node."""

    node_id: str
    release_id: str
    ok: bool
    #: machine-readable failure class ("" on success): ``signature``,
    #: ``verifier``, ``dead``
    error: str = ""
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form for the rollout log."""
        return {"node_id": self.node_id, "release_id": self.release_id,
                "ok": self.ok, "error": self.error,
                "detail": self.detail}
