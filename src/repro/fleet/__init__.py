"""Fleet control plane: signed staged rollouts with canary rollback.

The paper's §3 architecture moves safety out of the kernel and into a
trusted toolchain — but once verification happens *before* deployment,
the deployment machinery itself becomes part of the safety story: a
signed release that misbehaves in production must be caught and rolled
back by the control plane, not by an in-kernel verifier.  This package
models that control plane over hundreds of simulated kernels:

* :mod:`repro.fleet.services` — the pure core: a release registry
  that verifies each extension image once through a toolchain booted
  from the fleet's node image, then certifies, content-hashes and
  signs it, so nodes load it by signature
  (:class:`~repro.fleet.services.registry.ReleaseRegistry`), a
  staged-rollout planner (1% → 10% → 50% → 100% waves,
  :class:`~repro.fleet.services.planner.RolloutPlanner`), a canary
  evaluator over supervisor health states
  (:class:`~repro.fleet.services.canary.CanaryEvaluator`), a
  fleet-wide telemetry aggregator
  (:class:`~repro.fleet.services.aggregate.FleetTelemetry`) and the
  orchestrator that drives a rollout to completion or rolls it back
  (:class:`~repro.fleet.services.orchestrator.RolloutOrchestrator`).
* :mod:`repro.fleet.ports` — the vocabulary nodes answer in (the
  census states, :class:`~repro.fleet.ports.DeployResult`); the
  services never touch a ``Kernel``.
* :mod:`repro.fleet.adapters` — the in-process simulated fleet
  (:class:`~repro.fleet.adapters.sim.SimFleet`, the directory of
  hundreds of :class:`~repro.fleet.adapters.node.FleetNode` agents,
  each a :class:`~repro.kernel.kernel.Kernel` stamped from one
  :class:`~repro.kernel.spec.KernelSpec`) and the ``bpftool fleet``
  CLI adapter.
* :mod:`repro.fleet.transport` — the unreliable control channel:
  every orchestrator→node operation travels as an
  :class:`~repro.fleet.transport.RpcRequest` through
  :class:`~repro.fleet.transport.FleetTransport` to the node agent's
  method of the same name, while seeded failpoints drop, delay,
  duplicate or partition it and the client retries with exponential
  backoff; nodes the channel cannot raise land in the
  ``unreachable`` census state.
* :mod:`repro.fleet.journal` — the rollout write-ahead journal
  (:class:`~repro.fleet.journal.MemoryJournal`,
  :class:`~repro.fleet.journal.FileJournal`):
  ``RolloutOrchestrator.resume()`` replays a crashed rollout's
  journaled prefix and drives the remainder live.

Determinism is the contract throughout: the same (release, seed,
fault schedule) yields a bit-identical rollout log and final health
census, pinned by a SHA-256 signature over the wave log — whether the
rollout ran straight through or crashed and resumed.
"""

from repro.fleet.ports import DeployResult, NODE_STATES
from repro.fleet.journal import (
    FileJournal,
    MemoryJournal,
    OrchestratorCrash,
    RolloutJournal,
)
from repro.fleet.services.aggregate import FleetTelemetry
from repro.fleet.services.canary import (
    CanaryEvaluator,
    CanaryPolicy,
    CanaryVerdict,
)
from repro.fleet.services.orchestrator import (
    ResumeDiverged,
    RolloutEntry,
    RolloutOrchestrator,
    RolloutReport,
)
from repro.fleet.services.planner import RolloutPlanner, Wave
from repro.fleet.services.registry import Release, ReleaseRegistry
from repro.fleet.transport import (
    FleetTransport,
    RetryPolicy,
    RpcOutcome,
    RpcRequest,
)
from repro.fleet.adapters.node import FleetNode
from repro.fleet.adapters.sim import SimFleet

__all__ = [
    "CanaryEvaluator",
    "CanaryPolicy",
    "CanaryVerdict",
    "DeployResult",
    "FileJournal",
    "FleetNode",
    "FleetTelemetry",
    "FleetTransport",
    "MemoryJournal",
    "NODE_STATES",
    "OrchestratorCrash",
    "Release",
    "ReleaseRegistry",
    "ResumeDiverged",
    "RetryPolicy",
    "RolloutEntry",
    "RolloutJournal",
    "RolloutOrchestrator",
    "RolloutPlanner",
    "RolloutReport",
    "RpcOutcome",
    "RpcRequest",
    "SimFleet",
    "Wave",
]
