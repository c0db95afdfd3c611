"""The rollout driver: staged deploy, canary gate, auto-rollback —
now over an unreliable control channel, and crash-resumable.

One :meth:`RolloutOrchestrator.rollout` call takes a published release
through the planner's waves.  Per wave: deploy to every wave node
(signature re-checked on each node), soak the deployed nodes under
supervised dispatch, take the health census, ask the canary.  A failed
verdict halts the rollout and rolls **every** upgraded node back.

Everything between the orchestrator and a node travels through the
:class:`~repro.fleet.transport.FleetTransport` envelope: requests can
be dropped, delayed, duplicated or partitioned by the fault plane, the
client retries with exponential backoff and seeded jitter, and every
logical operation carries one request id so retries and duplicates
cannot double-apply.  A node that exhausts the retry budget lands in
the ``unreachable`` census state and is judged against the wave's
unreachable budget — a wave the orchestrator cannot see does not pass
on the health of the nodes it can.

Rollouts are durable: every decision (:class:`RolloutEntry`) and every
RPC result is appended to a write-ahead
:class:`~repro.fleet.journal.RolloutJournal` before the rollout moves
on.  ``fleet.orch.crash`` kills the orchestrator at an append
boundary; :meth:`RolloutOrchestrator.resume` replays the journaled
prefix without re-touching the fleet and drives the remainder live —
same seed ⇒ a :meth:`RolloutReport.signature` bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fleet.journal import (
    MemoryJournal,
    OrchestratorCrash,
    RolloutJournal,
)
from repro.fleet.ports import DeployResult, FleetPort
from repro.fleet.services.canary import CanaryEvaluator, CanaryVerdict
from repro.fleet.services.planner import RolloutPlanner, Wave
from repro.fleet.services.registry import Release, ReleaseRegistry
from repro.fleet.transport import (
    FleetTransport,
    RpcOutcome,
    RpcRequest,
)


@dataclass(frozen=True)
class RolloutEntry:
    """One control-plane decision, stamped with a sequence number
    (the control plane has no clock of its own — node time is node
    business)."""

    seq: int
    kind: str
    #: wave number the entry belongs to (0 = rollout-level)
    wave: int
    #: sorted ``(key, value)`` pairs
    detail: Tuple[Tuple[str, object], ...]

    def get(self, key: str, default: object = None) -> object:
        """One detail value."""
        return dict(self.detail).get(key, default)

    def render(self) -> str:
        """One log line."""
        parts = " ".join(f"{k}={v}" for k, v in self.detail)
        return (f"[{self.seq:03d}] wave={self.wave} {self.kind}"
                + (f" {parts}" if parts else ""))

    def signature_bytes(self) -> bytes:
        """Stable serialization for the rollout signature."""
        return repr((self.seq, self.kind, self.wave,
                     self.detail)).encode()


class RolloutReport:
    """Everything one rollout did: log, verdicts, final census."""

    def __init__(self, release_id: str, seed: int) -> None:
        """Start an empty report for ``release_id`` under ``seed``."""
        self.release_id = release_id
        self.seed = seed
        #: terminal state: ``completed`` (100% fleet), ``rolled-back``
        #: (canary failed, every upgraded node restored), ``halted``
        #: (operator stop, nodes left as they are), ``rejected``
        #: (signature refused before any deploy)
        self.outcome = "in-progress"
        self.entries: List[RolloutEntry] = []
        self.verdicts: List[CanaryVerdict] = []
        #: fleet-wide ``state -> count`` census taken after the
        #: rollout settled
        self.final_census: Dict[str, int] = {}
        #: nodes running the release when the rollout settled
        self.converged_nodes = 0
        #: nodes whose rollback failed on the node itself (quarantined
        #: by the orchestrator — parked, not forgotten)
        self.stuck_nodes: List[str] = []
        #: nodes the control channel never reached again after they
        #: took the release (still listed when the rollout settles)
        self.unreachable_nodes: List[str] = []
        #: control-channel accounting for this rollout (derived from
        #: the journaled op outcomes, so it survives crash + resume)
        self.rpc_retries = 0
        self.rpc_unreachable = 0

    def log(self, kind: str, wave: int = 0,
            **detail: object) -> RolloutEntry:
        """Append one decision to the rollout log."""
        entry = RolloutEntry(
            seq=len(self.entries), kind=kind, wave=wave,
            detail=tuple(sorted(detail.items())))
        self.entries.append(entry)
        return entry

    def signature(self) -> str:
        """SHA-256 over the log and the final census: two rollouts
        with the same signature made the same decisions about the
        same fleet."""
        digest = hashlib.sha256()
        for entry in self.entries:
            digest.update(entry.signature_bytes())
        digest.update(repr(sorted(self.final_census.items())).encode())
        return digest.hexdigest()

    def summary(self) -> Dict[str, object]:
        """The compact JSON-able roll-up (telemetry's ``rollouts``
        rows)."""
        return {
            "release": self.release_id,
            "seed": self.seed,
            "outcome": self.outcome,
            "waves": len(self.verdicts),
            "converged_nodes": self.converged_nodes,
            "final_census": dict(self.final_census),
            "stuck_nodes": list(self.stuck_nodes),
            "unreachable_nodes": list(self.unreachable_nodes),
            "rpc_retries": self.rpc_retries,
            "rpc_unreachable": self.rpc_unreachable,
            "signature": self.signature(),
        }

    def as_dict(self) -> Dict[str, object]:
        """The full report (CLI ``--json`` body)."""
        body = self.summary()
        body["verdicts"] = [v.as_dict() for v in self.verdicts]
        body["log"] = [e.render() for e in self.entries]
        return body

    def render(self) -> str:
        """The human-readable rollout log."""
        lines = [e.render() for e in self.entries]
        lines.append(f"outcome: {self.outcome} "
                     f"signature={self.signature()[:16]}")
        return "\n".join(lines)


def _encode_value(value: object) -> object:
    """JSON-able form of an op's return value (journal payload)."""
    if isinstance(value, DeployResult):
        return {"__deploy_result__": value.as_dict()}
    return value


def _decode_value(value: object) -> object:
    """Inverse of :func:`_encode_value`."""
    if isinstance(value, dict) and "__deploy_result__" in value:
        body = value["__deploy_result__"]
        return DeployResult(
            node_id=body["node_id"], release_id=body["release_id"],
            ok=body["ok"], error=body["error"],
            detail=body["detail"])
    return value


class ResumeDiverged(RuntimeError):
    """Resume re-drove the rollout and produced a different decision
    than the journal recorded — the determinism contract broke."""


class RolloutOrchestrator:
    """Drives releases through a fleet, one rollout at a time."""

    def __init__(self, fleet: FleetPort, registry: ReleaseRegistry,
                 planner: Optional[RolloutPlanner] = None,
                 canary: Optional[CanaryEvaluator] = None,
                 telemetry: Optional[object] = None,
                 transport: Optional[FleetTransport] = None) -> None:
        """Wire the services together; ``telemetry`` (a
        :class:`~repro.fleet.services.aggregate.FleetTelemetry`) is
        optional — rollouts work headless.  ``transport`` defaults to
        a transparent envelope around ``fleet`` (no faults armed, one
        wire-latency tick per call)."""
        self.fleet = fleet
        self.registry = registry
        self.planner = planner or RolloutPlanner()
        self.canary = canary or CanaryEvaluator()
        self.telemetry = telemetry
        self.transport = transport or FleetTransport(fleet)
        self._halt_requested = False
        #: rollouts started through this orchestrator (scopes request
        #: ids — see :meth:`_call`)
        self._rollout_count = 0
        # replay state (inert outside an active rollout)
        self._journal: RolloutJournal = MemoryJournal()
        self._replay_entries: List[Dict[str, object]] = []
        self._replay_ops: Dict[str, Dict[str, object]] = {}
        self._replay_op_count = 0
        self._entry_cursor = 0
        self._op_seq = 0
        self._appended = 0
        self._last_entry_live = True
        self._rid = 0

    def halt(self) -> None:
        """Operator stop: the rollout finishes its current wave and
        goes no further (no rollback — the operator decides next)."""
        self._halt_requested = True

    # -- entry points ---------------------------------------------------------

    def rollout(self, release_id: str, seed: int,
                halt_after: Optional[int] = None,
                journal: Optional[RolloutJournal] = None,
                ) -> RolloutReport:
        """Deploy ``release_id`` through staged waves under ``seed``.

        ``halt_after`` stops after that wave index (the CLI's
        ``fleet halt`` demonstration).  ``journal`` receives the
        write-ahead log (defaults to an in-memory one).  Returns the
        full :class:`RolloutReport`; never raises for release *or
        channel* misbehavior — a bad release and an unreachable node
        are outcomes.  The one deliberate exception is
        :class:`~repro.fleet.journal.OrchestratorCrash` from an armed
        ``fleet.orch.crash`` failpoint: the journal stays consistent
        and :meth:`resume` picks the rollout back up."""
        self._rollout_count += 1
        self._begin(journal or MemoryJournal(),
                    entries=[], ops={}, rid=self._rollout_count)
        self._journal.append_header(release_id, seed, halt_after,
                                    rollout=self._rollout_count)
        self._crash_point()
        return self._drive(release_id, seed, halt_after)

    def resume(self, journal: RolloutJournal) -> RolloutReport:
        """Reload a rollout from its write-ahead journal and drive it
        to its terminal state.  The journaled prefix is replayed
        without touching the fleet — recorded ops return their
        recorded results, recorded entries are re-emitted — and the
        first un-journaled operation onward runs live, so the control
        channel's RNG and clock continue exactly where the dead
        orchestrator left them.  Resuming a *complete* journal is a
        pure replay: the report is rebuilt with zero fleet traffic."""
        header = journal.header()
        if header is None:
            raise ValueError("cannot resume an empty journal "
                             "(no header record)")
        was_complete = journal.complete()
        self._begin(journal, entries=journal.entries(),
                    ops=journal.ops(),
                    rid=int(header.get("rollout", 1)))
        if self.telemetry is not None and not was_complete:
            self.telemetry.record_resume()
        halt_after = header.get("halt_after")
        return self._drive(str(header["release"]),
                           int(header["seed"]),
                           None if halt_after is None
                           else int(halt_after))

    def _begin(self, journal: RolloutJournal,
               entries: List[Dict[str, object]],
               ops: Dict[str, Dict[str, object]],
               rid: int) -> None:
        """Reset per-rollout state (fresh or resumed)."""
        self._journal = journal
        self._rid = rid
        self._replay_entries = entries
        self._replay_ops = ops
        self._replay_op_count = len(ops)
        self._entry_cursor = 0
        self._op_seq = 0
        self._appended = len(journal.records())
        self._last_entry_live = not entries

    # -- journal plumbing -----------------------------------------------------

    def _crash_point(self) -> None:
        """The orchestrator-death failpoint, consulted after every
        journal append — so a crash never splits an append."""
        plane = self.transport.plane
        if plane is not None and plane.armed:
            action = plane.check("fleet.orch.crash")
            if action is not None and action.kind == "panic":
                raise OrchestratorCrash(self._appended)

    def _log(self, report: RolloutReport, kind: str, wave: int = 0,
             **detail: object) -> RolloutEntry:
        """Append one decision to the report *and* the journal — or,
        while replaying a resumed rollout's prefix, check it against
        the journaled entry instead of re-journaling it."""
        entry = report.log(kind, wave=wave, **detail)
        if self._entry_cursor < len(self._replay_entries):
            recorded = self._replay_entries[self._entry_cursor]
            self._entry_cursor += 1
            self._last_entry_live = False
            if recorded["entry_kind"] != kind \
                    or recorded["seq"] != entry.seq:
                raise ResumeDiverged(
                    f"journal has {recorded['entry_kind']!r} at seq "
                    f"{recorded['seq']}, resume produced {kind!r} at "
                    f"seq {entry.seq}")
            return entry
        self._last_entry_live = True
        self._journal.append_entry(
            entry.seq, entry.kind, entry.wave,
            [[k, v] for k, v in entry.detail])
        self._appended += 1
        self._crash_point()
        return entry

    def _call(self, method: str, node_id: str,
              *args: object) -> RpcOutcome:
        """One logical RPC through the transport, write-ahead
        journaled — or replayed from the journal on resume."""
        self._op_seq += 1
        key = f"r{self._rid:03d}:{self._op_seq:05d}:{method}:{node_id}"
        if self._op_seq <= self._replay_op_count:
            recorded = self._replay_ops.get(key)
            if recorded is None:
                raise ResumeDiverged(
                    f"resume produced op {key!r} which the journal "
                    "does not record")
            body = recorded["outcome"]
            outcome = RpcOutcome(
                request_id=key, method=method, node_id=node_id,
                ok=bool(body["ok"]),
                value=_decode_value(recorded["value"]),
                error=str(body["error"]),
                attempts=int(body["attempts"]))
        else:
            outcome = self.transport.call(RpcRequest(
                request_id=key, method=method, node_id=node_id,
                args=args))
            self._journal.append_op(key, outcome.as_dict(),
                                    _encode_value(outcome.value))
            # journaled: neither a retry nor a resume sends this key
            # again, so the node can retire its cached reply
            self.transport.acknowledge(key)
            self._appended += 1
            self._crash_point()
        return outcome

    def _pause(self, label: str) -> None:
        """A deliberate control-clock pause (between rollback
        sweeps), journaled like an op so resume does not re-advance
        replayed time."""
        self._op_seq += 1
        key = f"r{self._rid:03d}:{self._op_seq:05d}:pause:{label}"
        if self._op_seq <= self._replay_op_count:
            if key not in self._replay_ops:
                raise ResumeDiverged(
                    f"resume produced pause {key!r} which the "
                    "journal does not record")
            return
        self.transport.clock.advance(
            self.transport.policy.sweep_pause_ns)
        self._journal.append_op(
            key, {"request_id": key, "method": "pause",
                  "node_id": label, "ok": True, "error": "",
                  "attempts": 0}, None)
        self._appended += 1
        self._crash_point()

    def _account(self, report: RolloutReport,
                 outcome: RpcOutcome) -> None:
        """Fold one op outcome into the report's RPC accounting
        (identical whether the op ran live or was replayed)."""
        report.rpc_retries += max(0, outcome.attempts - 1)
        if not outcome.ok:
            report.rpc_unreachable += 1

    # -- the rollout ----------------------------------------------------------

    def _drive(self, release_id: str, seed: int,
               halt_after: Optional[int]) -> RolloutReport:
        """The rollout engine (shared by fresh runs and resumes)."""
        self._halt_requested = False
        report = RolloutReport(release_id, seed)
        release = self.registry.get(release_id)
        if not self.registry.verify(release):
            self._log(report, "rejected", release=release_id,
                      reason="signature verification failed")
            report.outcome = "rejected"
            self._finish(report)
            return report

        node_ids = self.transport.node_ids()
        waves = self.planner.plan(node_ids, seed)
        self._log(
            report, "plan", release=release_id, seed=seed,
            fleet=len(node_ids), waves=len(waves),
            fractions=",".join(str(f) for f in
                               self.planner.fractions))
        upgraded: List[str] = []
        outcome = "completed"
        for wave in waves:
            if self._halt_requested:
                outcome = "halted"
                self._log(report, "halt", wave=wave.index,
                          reason="operator", upgraded=len(upgraded))
                break
            verdict = self._run_wave(report, release, wave, upgraded)
            if not verdict.passed:
                self._roll_back(report, wave, upgraded)
                outcome = "rolled-back"
                break
            if halt_after is not None and wave.index >= halt_after:
                outcome = "halted"
                self._log(report, "halt", wave=wave.index,
                          reason=f"halt-after-{halt_after}",
                          upgraded=len(upgraded))
                break
        report.outcome = outcome
        self._finish(report)
        return report

    def _run_wave(self, report: RolloutReport, release: Release,
                  wave: Wave, upgraded: List[str]) -> CanaryVerdict:
        """Deploy, soak and judge one wave; extends ``upgraded`` with
        the nodes that took the release.

        The wave census is the *orchestrator's* accounting, not the
        nodes' self-reports: a node whose deploy failed is counted
        ``deploy-failed`` (or ``dead``) against the wave even if its
        own census looks healthy, and a node the channel cannot raise
        is counted ``unreachable`` — so a wave where half the deploys
        fail cannot pass on the health of the other half."""
        self._log(report, "wave-start", wave=wave.index,
                  fraction=wave.fraction, nodes=len(wave.node_ids))
        states: Dict[str, str] = {}
        for node_id in wave.node_ids:
            outcome = self._call("deploy", node_id, release)
            self._account(report, outcome)
            if not outcome.ok:
                states[node_id] = "unreachable"
                self._log(report, "unreachable", wave=wave.index,
                          node=node_id, op="deploy",
                          attempts=outcome.attempts)
                continue
            result = outcome.value
            if result.ok:
                upgraded.append(node_id)
            else:
                states[node_id] = ("dead" if result.error == "dead"
                                   else "deploy-failed")
                self._log(report, "deploy-failed", wave=wave.index,
                          node=node_id, error=result.error,
                          detail=result.detail)
        deployed = [n for n in wave.node_ids if n not in states]
        for node_id in deployed:
            outcome = self._call("soak", node_id,
                                 self.canary.policy.soak_runs)
            self._account(report, outcome)
            if not outcome.ok:
                states[node_id] = "unreachable"
                self._log(report, "unreachable", wave=wave.index,
                          node=node_id, op="soak",
                          attempts=outcome.attempts)
        for node_id in deployed:
            if node_id in states:
                continue
            outcome = self._call("census", node_id)
            self._account(report, outcome)
            if not outcome.ok:
                states[node_id] = "unreachable"
                self._log(report, "unreachable", wave=wave.index,
                          node=node_id, op="census",
                          attempts=outcome.attempts)
            else:
                states[node_id] = outcome.value
        verdict = self.canary.evaluate(wave.index, states)
        report.verdicts.append(verdict)
        self._log(report, "canary", wave=wave.index,
                  passed=verdict.passed,
                  unhealthy=verdict.unhealthy,
                  unreachable=verdict.unreachable,
                  total=verdict.total,
                  census=";".join(f"{s}:{c}" for s, c
                                  in verdict.census if c))
        if self.telemetry is not None and self._last_entry_live:
            self.telemetry.record_wave(release.release_id, verdict)
        return verdict

    def _roll_back(self, report: RolloutReport, wave: Wave,
                   upgraded: List[str]) -> None:
        """Canary failure: restore every upgraded node, deploy order.

        Unreachable nodes are retried in bounded convergence sweeps
        (partitions heal, crashed agents reboot — each sweep pauses
        the control clock first).  A node whose rollback fails *on
        the node* is quarantined through the port and surfaced in
        ``report.stuck_nodes`` — parked, not forgotten."""
        self._log(report, "halt", wave=wave.index,
                  reason="canary-failed", upgraded=len(upgraded))
        restored = 0
        stuck: List[str] = []
        pending = list(upgraded)
        sweep = 0
        while pending:
            sweep += 1
            unreachable: List[str] = []
            for node_id in pending:
                outcome = self._call("rollback", node_id)
                self._account(report, outcome)
                if not outcome.ok:
                    unreachable.append(node_id)
                    self._log(report, "unreachable", wave=wave.index,
                              node=node_id, op="rollback",
                              attempts=outcome.attempts, sweep=sweep)
                elif outcome.value is None:
                    stuck.append(node_id)
                    self._log(report, "rollback-failed",
                              wave=wave.index, node=node_id)
                else:
                    restored += 1
            pending = unreachable
            if not pending \
                    or sweep > self.transport.policy.rollback_sweeps:
                break
            self._log(report, "rollback-sweep", wave=wave.index,
                      sweep=sweep, remaining=len(pending))
            self._pause(f"sweep-{sweep}")
        for node_id in stuck:
            outcome = self._call("quarantine", node_id,
                                 "stuck-rollback")
            self._account(report, outcome)
            self._log(report, "quarantine", wave=wave.index,
                      node=node_id,
                      ok=bool(outcome.ok and outcome.value))
        report.stuck_nodes = sorted(stuck)
        report.unreachable_nodes = sorted(pending)
        self._log(report, "rollback", wave=wave.index,
                  restored=restored, stuck=len(stuck),
                  unreachable=len(pending))
        if self.telemetry is not None and self._last_entry_live \
                and restored:
            self.telemetry.record_rollback(restored)

    def _reconcile_unreachable(self, report: RolloutReport) -> None:
        """Last-chance pass before the final census: a partition that
        healed after the rollback sweeps must not leave a reachable
        node on the withdrawn release."""
        still: List[str] = []
        healed = 0
        for node_id in report.unreachable_nodes:
            probe = self._call("census", node_id)
            self._account(report, probe)
            if not probe.ok:
                still.append(node_id)
                continue
            outcome = self._call("rollback", node_id)
            self._account(report, outcome)
            if not outcome.ok:
                still.append(node_id)
            elif outcome.value is None:
                quarantine = self._call("quarantine", node_id,
                                        "stuck-rollback")
                self._account(report, quarantine)
                report.stuck_nodes = sorted(
                    report.stuck_nodes + [node_id])
                self._log(report, "quarantine", node=node_id,
                          ok=bool(quarantine.ok and quarantine.value))
            else:
                healed += 1
                self._log(report, "rollback-late", node=node_id,
                          restored=outcome.value)
        if healed or len(still) != len(report.unreachable_nodes):
            self._log(report, "reconcile", healed=healed,
                      still_unreachable=len(still))
        report.unreachable_nodes = sorted(still)

    def _finish(self, report: RolloutReport) -> None:
        """Take the settled fleet-wide census and close the report."""
        if report.outcome == "rolled-back" \
                and report.unreachable_nodes:
            self._reconcile_unreachable(report)
        census: Dict[str, int] = {}
        converged = 0
        for node_id in self.transport.node_ids():
            outcome = self._call("census", node_id)
            self._account(report, outcome)
            if not outcome.ok:
                census["unreachable"] = \
                    census.get("unreachable", 0) + 1
                continue
            state = outcome.value
            census[state] = census.get(state, 0) + 1
            current = self._call("current_release", node_id)
            self._account(report, current)
            if current.ok and current.value == report.release_id:
                converged += 1
        report.final_census = census
        report.converged_nodes = converged
        self._log(report, "done", outcome=report.outcome,
                  converged=converged,
                  census=";".join(f"{s}:{c}" for s, c
                                  in sorted(census.items())),
                  rpc_retries=report.rpc_retries,
                  rpc_unreachable=report.rpc_unreachable)
        if self.telemetry is not None and self._last_entry_live:
            self.telemetry.record_rollout(report)
            self.telemetry.record_transport(
                retries=report.rpc_retries,
                unreachable=report.rpc_unreachable)
