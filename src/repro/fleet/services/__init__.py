"""The fleet control plane's pure core.

Five services, each alone in its module, none importing a kernel: the
orchestrator reaches nodes only through the control channel
(:class:`~repro.fleet.transport.FleetTransport`), and the aggregator
sees only the events on the nodes' buses:

* :mod:`~repro.fleet.services.registry` — signed release images
* :mod:`~repro.fleet.services.planner` — staged wave planning
* :mod:`~repro.fleet.services.canary` — health-census verdicts
* :mod:`~repro.fleet.services.aggregate` — fleet-wide telemetry
* :mod:`~repro.fleet.services.orchestrator` — the rollout driver
"""

from repro.fleet.services.aggregate import FleetTelemetry
from repro.fleet.services.canary import (
    CanaryEvaluator,
    CanaryPolicy,
    CanaryVerdict,
)
from repro.fleet.services.orchestrator import (
    RolloutEntry,
    RolloutOrchestrator,
    RolloutReport,
)
from repro.fleet.services.planner import RolloutPlanner, Wave
from repro.fleet.services.registry import Release, ReleaseRegistry

__all__ = [
    "CanaryEvaluator",
    "CanaryPolicy",
    "CanaryVerdict",
    "FleetTelemetry",
    "Release",
    "ReleaseRegistry",
    "RolloutEntry",
    "RolloutOrchestrator",
    "RolloutPlanner",
    "RolloutReport",
    "Wave",
]
