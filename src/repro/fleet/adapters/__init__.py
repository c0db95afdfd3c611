"""Fleet adapters: the concrete edges of the control plane.

* :mod:`~repro.fleet.adapters.node` / :mod:`~repro.fleet.adapters.sim`
  — the driven side: an in-process fleet of simulated kernels, each
  behind a node agent that answers the control channel's RPCs, plus
  the canonical demo scenario (one good release, one planted bad
  release).
* :mod:`~repro.fleet.adapters.cli` — the driving side: what the
  ``bpftool fleet`` subcommands call.
"""

from repro.fleet.adapters.node import FleetNode
from repro.fleet.adapters.sim import FleetScenario, SimFleet

__all__ = ["FleetNode", "FleetScenario", "SimFleet"]
