"""Fleet-wide telemetry: one dashboardable export for N kernels.

Each simulated kernel already exports its own metrics; a fleet needs
the roll-up.  :class:`FleetTelemetry` subscribes to every node's
kernel event stream — oopses, health transitions, loads, soft resets
— and folds the orchestrator's wave verdicts and rollout outcomes
into one
:class:`~repro.telemetry.metrics.MetricsRegistry`, exported as a JSON
snapshot or a Prometheus scrape body (the same exposition format as
the per-kernel exporter, rendered by the shared
:func:`~repro.telemetry.export.registry_to_prometheus`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.telemetry.export import registry_to_prometheus
from repro.telemetry.metrics import MetricsRegistry

#: the node event kinds the fleet counts (log and trace stay local)
OBSERVED = ("load", "oops", "health", "soft-reset")


class FleetTelemetry:
    """The fleet's observability hub (pure service: it only ever sees
    event buses and event objects, never a kernel)."""

    def __init__(self) -> None:
        """Create an empty aggregator and its metric families."""
        self.registry = MetricsRegistry()
        self._events = self.registry.counter(
            "repro_fleet_events_total",
            "kernel events observed fleet-wide, by kind",
            ("kind",))
        self._health_transitions = self.registry.counter(
            "repro_fleet_health_transitions_total",
            "supervisor health transitions observed fleet-wide",
            ("to",))
        self._wave_nodes = self.registry.counter(
            "repro_fleet_wave_nodes_total",
            "per-wave canary census, by rollout wave and state",
            ("release", "wave", "state"))
        self._rollouts = self.registry.counter(
            "repro_fleet_rollouts_total",
            "finished rollouts by outcome",
            ("outcome",))
        self._rollbacks = self.registry.counter(
            "repro_fleet_rollbacks_total",
            "nodes rolled back to a prior release")
        self._rpc_retries = self.registry.counter(
            "repro_fleet_rpc_retries_total",
            "control-channel delivery retries across rollouts")
        self._rpc_unreachable = self.registry.counter(
            "repro_fleet_rpc_unreachable_total",
            "logical RPCs that exhausted their retry budget")
        self._resumes = self.registry.counter(
            "repro_fleet_rollout_resumes_total",
            "rollouts resumed from a write-ahead journal")
        self._fleet_size = self.registry.gauge(
            "repro_fleet_nodes", "nodes under observation")
        #: per-wave census dicts, in rollout order (the JSON export's
        #: ``waves`` section)
        self.waves: List[Dict[str, object]] = []
        #: finished rollout summaries, in order
        self.rollouts: List[Dict[str, object]] = []

    # -- event-stream side ----------------------------------------------------

    def observe(self, buses: List[object]) -> int:
        """Subscribe to every node's event stream, given as its
        :class:`~repro.kernel.events.EventBus`; returns how many nodes
        are now observed.  Safe to call once per fleet — double
        observation would double-count."""
        for bus in buses:
            bus.subscribe(self._on_event, kinds=OBSERVED)
        self._fleet_size.labels().set(len(buses))
        return len(buses)

    def _on_event(self, event: object) -> None:
        """Fold one kernel event into the fleet counters."""
        self._events.labels(event.kind).inc()
        if event.kind == "health":
            self._health_transitions.labels(event.get("new")).inc()

    # -- orchestrator side ----------------------------------------------------

    def record_wave(self, release_id: str, verdict: object) -> None:
        """Fold one wave's canary verdict into the export."""
        for state, count in verdict.census:
            if count:
                self._wave_nodes.labels(
                    release_id, str(verdict.wave_index), state) \
                    .inc(count)
        row = verdict.as_dict()
        row["release"] = release_id
        self.waves.append(row)

    def record_rollback(self, count: int = 1) -> None:
        """Count nodes restored to their prior release."""
        self._rollbacks.labels().inc(count)

    def record_rollout(self, report: object) -> None:
        """Fold a finished rollout's outcome into the export."""
        self._rollouts.labels(report.outcome).inc()
        self.rollouts.append(report.summary())

    def record_transport(self, retries: int,
                         unreachable: int) -> None:
        """Fold one rollout's control-channel accounting in."""
        if retries:
            self._rpc_retries.labels().inc(retries)
        if unreachable:
            self._rpc_unreachable.labels().inc(unreachable)

    def record_resume(self) -> None:
        """Count one journal resume of an unfinished rollout."""
        self._resumes.labels().inc()

    # -- exports ---------------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        """Fleet-wide event totals by kind (stable order)."""
        family = self.registry.get("repro_fleet_events_total")
        return {labels[0]: inst.value
                for labels, inst in sorted(family.samples())}

    def snapshot(self) -> Dict[str, object]:
        """The aggregator's full state as a JSON-able dict."""
        return {
            "events": self.event_counts(),
            "waves": list(self.waves),
            "rollouts": list(self.rollouts),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document (sorted keys: the export
        itself is part of the determinism contract)."""
        return json.dumps(self.snapshot(), indent=indent,
                          sort_keys=True) + "\n"

    def to_prometheus(self) -> str:
        """The fleet registry as a Prometheus scrape body."""
        return registry_to_prometheus(self.registry)
