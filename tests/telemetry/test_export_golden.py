"""Golden exports of one fixed kernel scenario.

The scenario is a cold load, a cache-hit reload, stats-on runs that
call a helper, a supervised oops that is contained, a map created and
then destroyed, and a SafeLang load.  Its kernel log (``dmesg``), its
trace JSONL and its ``stats dump`` JSON and Prometheus text are
compared with the files under ``golden/``.  Only the host wall-time
fields (``verify_ns``, ``jit_ns``, ``predecode_ns``, ``compile_ns``
and ``repro_load_stage_ns_total``) are masked, so any change to what
the kernel logs, traces or exports fails here.

The log and the trace are views of the kernel's one event ring, so
each fact behind them is one event: :class:`TestOneRecordPerFact`
checks that for a cold load, a cache-hit load, a certified load, an
oops, a supervisor decision and an injected fault.
"""

import json
import re
from pathlib import Path

import pytest

from repro.core import SafeExtensionFramework
from repro.core.signing import SigningKey
from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progcache import certificate_image
from repro.ebpf.progs import ProgType
from repro.faultinject.plane import (
    ENOMEM,
    FaultAction,
    OneShot,
    parse_action,
)
from repro.kernel import Kernel
from repro.telemetry import to_json, to_prometheus

GOLDEN = Path(__file__).with_name("golden")

#: host wall-time fields: they differ on every run
WALL_FIELDS = ("verify_ns", "jit_ns", "predecode_ns", "compile_ns")
WALL_FAMILY = "repro_load_stage_ns_total"
MASK = "<wall-ns>"


def helper_prog(helper: int) -> list:
    """Call one helper, return 0."""
    return (Asm().call(helper).mov64_imm(R0, 0).exit_().program())


def golden_kernel():
    """Run the scenario; returns the kernel and the programs it must
    keep alive."""
    kernel = Kernel()
    kernel.enable_recovery()
    bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
    pid = helper_prog(ids.BPF_FUNC_get_current_pid_tgid)
    hot = bpf.load_program(pid, ProgType.KPROBE, "hot")
    again = bpf.load_program(pid, ProgType.KPROBE, "again")
    kernel.telemetry.enable()
    for __ in range(2):
        bpf.run_on_current_task(hot)
    kernel.telemetry.disable()
    victim = bpf.load_program(helper_prog(ids.BPF_FUNC_ktime_get_ns),
                              ProgType.KPROBE, "victim")
    kernel.faults.enable(7)
    kernel.faults.arm("helper.bpf_ktime_get_ns", OneShot(),
                      FaultAction.panic())
    bpf.run_on_current_task(victim)
    array = bpf.create_map("array")
    bpf.destroy_map(array.map_fd)
    SafeExtensionFramework(kernel).install(
        "fn prog(ctx: XdpCtx) -> i64 { return 1; }", "ext")
    return kernel, (hot, again, victim)


def _mask_fields(row: dict) -> dict:
    return {key: MASK if key in WALL_FIELDS else value
            for key, value in row.items()}


def masked_jsonl(text: str) -> str:
    rows = []
    for line in text.splitlines():
        row = json.loads(line)
        row["data"] = _mask_fields(row["data"])
        rows.append(json.dumps(row, sort_keys=True))
    return "\n".join(rows) + "\n"


def masked_json(text: str) -> str:
    doc = json.loads(text)
    doc["progs"] = [_mask_fields(row) for row in doc["progs"]]
    for family in doc["metrics"]:
        if family["name"] == WALL_FAMILY:
            for sample in family["samples"]:
                sample["value"] = MASK
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def masked_prometheus(text: str) -> str:
    return re.sub(rf"^({WALL_FAMILY}{{[^}}]*}}) \d+$", rf"\1 {MASK}",
                  text, flags=re.M)


@pytest.fixture(scope="module")
def exports():
    kernel, __ = golden_kernel()
    return {
        "dmesg.txt": kernel.log.dmesg() + "\n",
        "trace.jsonl": masked_jsonl(kernel.telemetry.trace.to_jsonl()),
        "stats.json": masked_json(to_json(kernel.telemetry)),
        "stats.prom": masked_prometheus(to_prometheus(kernel.telemetry)),
    }


@pytest.mark.parametrize("name", ["dmesg.txt", "trace.jsonl",
                                  "stats.json", "stats.prom"])
def test_export_matches_golden(exports, name):
    assert exports[name] == (GOLDEN / name).read_text()


def test_scenario_is_deterministic(exports):
    """The goldens are only meaningful if the masked exports repeat."""
    kernel, __ = golden_kernel()
    assert kernel.log.dmesg() + "\n" == exports["dmesg.txt"]
    assert masked_jsonl(kernel.telemetry.trace.to_jsonl()) == \
        exports["trace.jsonl"]


def one_new_event(kernel, action):
    """Run ``action``; check it published exactly one event and
    return that event with the action's result."""
    before = sum(kernel.events.emitted.values())
    result = action()
    assert sum(kernel.events.emitted.values()) - before == 1
    return kernel.events.ring[-1], result


class TestOneRecordPerFact:
    """Each fact is one event on the ring, and the log line and the
    trace row are renderings of that event."""

    def test_cold_load(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        event, prog = one_new_event(kernel, lambda: bpf.load_program(
            helper_prog(ids.BPF_FUNC_ktime_get_ns), ProgType.KPROBE,
            "p"))
        assert (event.kind, event.source) == ("load", "bpf:p")
        assert event.get("prog_id") == prog.prog_id
        assert event.lines() == (
            "bpf: loaded prog 1 (p) type=kprobe insns=3 verified in "
            "3 steps",)
        assert kernel.log.records[-1] is event
        row = kernel.telemetry.trace.events()[-1]
        assert (row.kind, row.framework, row.prog) == \
            ("load", "ebpf", "p")

    def test_cache_hit_load(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        insns = helper_prog(ids.BPF_FUNC_ktime_get_ns)
        cold = bpf.load_program(insns, ProgType.KPROBE, "a")
        event, hit = one_new_event(kernel, lambda: bpf.load_program(
            insns, ProgType.KPROBE, "b"))
        assert event.get("cache_hit") is True
        assert event.lines() == (
            "bpf: verification cache hit for (b), skipping verifier",
            "bpf: loaded prog 2 (b) type=kprobe insns=3 verified in "
            "3 steps")
        assert kernel.telemetry.trace.events()[-1].data[
            "insns_processed"] == 0
        assert cold.prog_id != hit.prog_id

    def test_certified_load(self):
        key = SigningKey.generate("test-toolchain")
        insns = helper_prog(ids.BPF_FUNC_ktime_get_ns)
        toolchain = BpfSubsystem(Kernel())
        load_key, artifacts = toolchain.certify(insns, ProgType.KPROBE)
        cert = key.sign(certificate_image(load_key, artifacts.digest()))
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, trusted_key=key)
        event, prog = one_new_event(kernel, lambda: bpf.load_program(
            insns, ProgType.KPROBE, "p", certificate=cert,
            artifacts=artifacts))
        assert prog.verifier_stats.certified
        assert event.get("certified") is True
        assert event.lines() == (
            "bpf: loaded prog 1 (p) type=kprobe insns=3 certified",)

    def test_oops(self):
        kernel = Kernel()
        event, __ = one_new_event(kernel, lambda: kernel.log.record_oops(
            5, "wild write", category="page_fault", source="bpf:p"))
        assert (event.kind, event.timestamp_ns) == ("oops", 5)
        assert event.lines() == (
            "BUG: page_fault: wild write (source: bpf:p)",
            "---[ end trace ]---")
        assert kernel.telemetry.trace.events()[-1].data == \
            {"category": "page_fault"}
        fam = kernel.telemetry.registry.get("repro_oops_total")
        assert fam.labels("page_fault", "bpf:p").value == 1

    def test_rcu_stall(self):
        kernel = Kernel()
        rcu = kernel.rcu
        rcu.read_lock("bpf:spin")
        event, __ = one_new_event(kernel, lambda: kernel.clock.advance(
            rcu.stall_timeout_ns))
        rcu.read_unlock()
        assert (event.kind, event.source, event.timestamp_ns) == \
            ("rcu_stall", "bpf:spin", rcu.stall_timeout_ns)
        assert rcu.stalls == 1
        assert kernel.log.dmesg().splitlines()[-1] == (
            "[   21.000000] rcu: INFO: rcu_sched self-detected stall on "
            "CPU (bpf:spin stuck for 21s)")

    def test_supervisor_decision(self):
        kernel = Kernel()
        supervisor = kernel.enable_recovery()
        supervisor.quarantine("bpf:p", reason="operator")
        # a quarantine is two facts: the health transition and the
        # decision; a refusal while the breaker is open is one
        assert [e.kind for e in list(kernel.events.ring)[-2:]] == \
            ["health", "recovery"]
        decisions = supervisor.decisions
        digest = supervisor.audit_signature()
        event, refused = one_new_event(
            kernel, lambda: supervisor.gate("bpf:p"))
        assert refused
        assert supervisor.decisions == decisions + 1
        assert supervisor.audit_signature() != digest
        assert supervisor.audit_for("bpf:p")[-1] is event
        assert (event.kind, event.get("decision")) == \
            ("recovery", "refused")
        assert event.lines() == (
            "recovery: [0] refused bpf:p refusals=1 "
            "release_at_ns=2000000",)
        assert kernel.telemetry.trace.events()[-1].data == \
            {"decision": "refused", "refusals": 1,
             "release_at_ns": 2000000}

    def test_injected_fault(self):
        kernel = Kernel()
        plane = kernel.faults
        plane.enable(7)
        plane.arm("helper.*", OneShot(), FaultAction.err(ENOMEM))
        event, action = one_new_event(
            kernel, lambda: plane.check("helper.bpf_ktime_get_ns"))
        assert (event.kind, event.source, event.get("action")) == \
            ("fault", "helper.bpf_ktime_get_ns", "errno:ENOMEM")
        assert parse_action(event.get("action")) == action
        assert (plane.delivered, plane.errnos) == (1, 1)
        assert plane.retained(kernel.events.ring) == [(0, event)]
        assert kernel.telemetry.trace.events()[-1].data == \
            {"action": "errno:ENOMEM", "hit": 1, "pattern": "helper.*"}
