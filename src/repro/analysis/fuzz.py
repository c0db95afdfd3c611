"""Verifier fuzzing (the [41] methodology, applied to our own model).

The paper cites fuzzing as one of the community's responses to
verifier bugs.  This module implements that methodology against the
reproduction's verifier, checking two properties over random programs:

1. **robustness** — the verifier never crashes: every input produces
   either acceptance or a clean :class:`VerifierError`;
2. **soundness** — a program the verifier *accepts* never compromises
   a patched kernel at run time (no oops, no stall, no leak).  On a
   patched kernel any such compromise would be a genuine soundness
   bug in the verifier under test.

The generator produces structurally plausible programs (valid opcodes,
plausible register/offset ranges, guaranteed trailing exit) so a
useful fraction survives verification; pure byte-noise would be
rejected at decode and test nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.ebpf import isa
from repro.ebpf.bugs import BugConfig
from repro.ebpf.isa import Insn
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import (
    BpfRuntimeError,
    KernelSafetyViolation,
    ReproError,
    VerifierError,
)
from repro.kernel import Kernel

_ALU_OPS = [isa.BPF_ADD, isa.BPF_SUB, isa.BPF_MUL, isa.BPF_DIV,
            isa.BPF_OR, isa.BPF_AND, isa.BPF_LSH, isa.BPF_RSH,
            isa.BPF_MOD, isa.BPF_XOR, isa.BPF_MOV, isa.BPF_ARSH]

_JMP_OPS = [isa.BPF_JEQ, isa.BPF_JGT, isa.BPF_JGE, isa.BPF_JSET,
            isa.BPF_JNE, isa.BPF_JSGT, isa.BPF_JSGE, isa.BPF_JLT,
            isa.BPF_JLE, isa.BPF_JSLT, isa.BPF_JSLE]

_SIZES = [isa.BPF_B, isa.BPF_H, isa.BPF_W, isa.BPF_DW]

#: helpers included in the fuzz pool (argument shapes come out random,
#: so most calls are rejected — which is fine, rejection is a result)
_HELPER_IDS = [1, 2, 3, 4, 5, 7, 8, 14, 15, 16, 105, 166, 182]


class _GenState:
    """Register/stack knowledge the generator uses to bias toward
    verifiable programs (pure noise never gets past decode)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.scalars = {0}          # starts after the seed mov
        self.written_slots: List[int] = []

    def any_scalar(self) -> int:
        """A register known to hold an initialized scalar."""
        return self.rng.choice(sorted(self.scalars))

    def writable(self) -> int:
        """Any writable register (r0-r9)."""
        return self.rng.randint(0, 9)


def random_insn(state: _GenState, position: int,
                length: int) -> Insn:
    """One random instruction, biased toward plausibility but with a
    deliberate garbage tail to exercise rejection paths."""
    rng = state.rng
    choice = rng.random()

    def imm() -> int:
        return rng.choice([0, 1, 2, 7, 255, 4096,
                           rng.randint(-(1 << 31), (1 << 31) - 1)])

    if choice < 0.05:  # raw garbage: random fields
        return Insn(rng.choice(_ALU_OPS + _JMP_OPS)
                    | rng.choice([isa.BPF_ALU64, isa.BPF_JMP])
                    | rng.choice([isa.BPF_K, isa.BPF_X]),
                    rng.randint(0, 10), rng.randint(0, 10),
                    rng.randint(-8, 8), imm())
    if choice < 0.50:  # ALU on known-initialized registers
        op = rng.choice(_ALU_OPS)
        cls = rng.choice([isa.BPF_ALU64, isa.BPF_ALU])
        dst = state.writable()
        if op == isa.BPF_MOV or dst not in state.scalars:
            op = isa.BPF_MOV
        if rng.random() < 0.5 or not state.scalars:
            insn = Insn(cls | op | isa.BPF_K, dst, 0, 0, imm())
        else:
            insn = Insn(cls | op | isa.BPF_X, dst,
                        state.any_scalar(), 0, 0)
        state.scalars.add(dst)
        return insn
    if choice < 0.72:  # stack traffic
        size = rng.choice(_SIZES)
        nbytes = isa.SIZE_BYTES[size]
        kind = rng.random()
        if kind < 0.55 or not state.written_slots:
            # store to an aligned slot
            off = -nbytes * rng.randint(1, 64 // nbytes)
            if rng.random() < 0.5 and state.scalars:
                insn = Insn(isa.BPF_STX | size | isa.BPF_MEM, 10,
                            state.any_scalar(), off, 0)
            else:
                insn = Insn(isa.BPF_ST | size | isa.BPF_MEM, 10, 0,
                            off, imm())
            if size == isa.BPF_DW:
                state.written_slots.append(off)
            return insn
        # load back a previously written 8-byte slot
        dst = state.writable()
        state.scalars.add(dst)
        return Insn(isa.BPF_LDX | isa.BPF_DW | isa.BPF_MEM, dst, 10,
                    rng.choice(state.written_slots), 0)
    if choice < 0.78:  # ctx load
        dst = state.writable()
        state.scalars.add(dst)
        return Insn(isa.BPF_LDX | isa.BPF_DW | isa.BPF_MEM, dst, 1,
                    rng.choice([0, 8, 16, 24, 32, 40]), 0)
    if choice < 0.92:  # forward jump on an initialized register
        op = rng.choice(_JMP_OPS)
        max_fwd = max(0, length - position - 2)
        off = rng.randint(0, min(max_fwd, 6)) if max_fwd else 0
        if rng.random() < 0.6 or not state.scalars:
            return Insn(isa.BPF_JMP | op | isa.BPF_K,
                        state.any_scalar(), 0, off, imm())
        return Insn(isa.BPF_JMP | op | isa.BPF_X,
                    state.any_scalar(), state.any_scalar(), off, 0)
    if choice < 0.97:  # no-arg helper call
        for regno in range(6):
            state.scalars.discard(regno)
        state.scalars.add(0)
        return Insn(isa.BPF_JMP | isa.BPF_CALL, 0, 0, 0,
                    rng.choice([5, 7, 8, 14, 15]))
    # random helper with whatever is lying around (usually rejected)
    return Insn(isa.BPF_JMP | isa.BPF_CALL, 0, 0, 0,
                rng.choice(_HELPER_IDS))


def random_program(rng: random.Random,
                   max_insns: int = 24) -> List[Insn]:
    """A random program: seed mov, random body, clean epilogue."""
    state = _GenState(rng)
    length = rng.randint(1, max_insns)
    body = [Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, 0, 0, 0, 0)]
    body.extend(random_insn(state, index + 1, length + 3)
                for index in range(length))
    body.append(Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, 0, 0,
                     0, 0))
    body.append(Insn(isa.BPF_JMP | isa.BPF_EXIT))
    return body


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    total: int = 0
    rejected: int = 0
    accepted: int = 0
    ran_clean: int = 0
    ran_recoverable: int = 0
    #: verifier raised something other than VerifierError
    verifier_crashes: List[str] = field(default_factory=list)
    #: accepted program compromised a patched kernel
    soundness_violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when both fuzz properties held."""
        return not self.verifier_crashes \
            and not self.soundness_violations


def fuzz_campaign(iterations: int = 300, seed: int = 1337) -> FuzzReport:
    """Run the campaign; deterministic for a given seed."""
    rng = random.Random(seed)
    report = FuzzReport()
    for index in range(iterations):
        program = random_program(rng)
        report.total += 1
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        try:
            prog = bpf.load_program(program, ProgType.KPROBE,
                                    f"fuzz{index}")
        except VerifierError:
            report.rejected += 1
            continue
        except Exception as error:  # noqa: BLE001 - the property
            report.verifier_crashes.append(
                f"seed={seed} iter={index}: {error!r}")
            continue
        report.accepted += 1
        try:
            bpf.run_on_current_task(prog)
            report.ran_clean += 1
        except BpfRuntimeError:
            report.ran_recoverable += 1
        except KernelSafetyViolation as violation:
            report.soundness_violations.append(
                f"seed={seed} iter={index}: {violation!r}")
        if not kernel.healthy or kernel.rcu.stalls:
            report.soundness_violations.append(
                f"seed={seed} iter={index}: kernel tainted after an "
                "accepted program")
    return report

# ---------------------------------------------------------------------------
# differential fuzzing: four engines, one semantics
# ---------------------------------------------------------------------------

#: the execution engines that must agree on every program: the
#: decode-per-step reference interpreter, the predecoded fast path,
#: the fast path running JIT-lowered instructions, and the compiled
#: tier (exec-generated Python over the predecoded table)
DIFF_ENGINES = (
    ("interp", {"use_jit": False, "engine": "interp"}),
    ("fast", {"use_jit": False, "engine": "fast"}),
    ("jit", {"use_jit": True, "engine": "fast"}),
    ("compiled", {"use_jit": False, "engine": "compiled"}),
)


def observe_engine(program: List[Insn], index: int,
                   engine_kwargs: dict) -> dict:
    """Run one program on one engine configuration (fresh kernel,
    stats on, patched bugs) and capture everything observable: the
    result or exception, final registers, instruction/helper/clock
    accounting, kernel health, and the telemetry row."""
    kernel = Kernel()
    kernel.telemetry.enable()
    bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched(),
                       **engine_kwargs)
    name = f"diff{index}"
    try:
        prog = bpf.load_program(program, ProgType.KPROBE, name)
    except VerifierError:
        return {"kind": "rejected"}
    except Exception as error:  # noqa: BLE001 - a crash is a result
        return {"kind": "load-crash", "error": type(error).__name__}
    try:
        result = ("ret", bpf.run_on_current_task(prog))
    except ReproError as error:
        result = ("err", type(error).__name__)
    except Exception as error:  # noqa: BLE001 - a crash is a result
        result = ("crash", type(error).__name__)
    row = kernel.telemetry.prog("ebpf", name)
    return {
        "kind": "ran",
        "result": result,
        "regs": tuple(bpf.vm.last_exit_regs)
        if bpf.vm.last_exit_regs is not None else None,
        "insns": bpf.vm.insns_executed,
        "helper_calls": bpf.vm.helper_calls,
        "clock_ns": kernel.clock.now_ns,
        "healthy": kernel.healthy,
        "stalls": kernel.rcu.stalls,
        "telemetry": (row.run_cnt, row.run_time_ns, row.insns,
                      row.helper_calls,
                      tuple(sorted(row.helper_counts.items())),
                      row.watchdog_fires, row.panics, row.oopses),
    }


@dataclass
class DifferentialReport:
    """Outcome of one differential campaign."""

    total: int = 0
    rejected: int = 0
    #: programs executed by all engines with identical observations
    compared: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no engine ever disagreed."""
        return not self.divergences


def differential_campaign(min_compared: int = 200, seed: int = 421,
                          max_insns: int = 24) -> DifferentialReport:
    """Generate random programs until ``min_compared`` of them have
    *executed* identically on every engine in :data:`DIFF_ENGINES`
    (rejections are also compared, but don't count toward the quota).
    Deterministic for a given seed."""
    rng = random.Random(seed)
    report = DifferentialReport()
    for index in range(min_compared * 12):
        if report.compared >= min_compared:
            break
        program = random_program(rng, max_insns)
        report.total += 1
        observations = {
            engine: observe_engine(program, index, kwargs)
            for engine, kwargs in DIFF_ENGINES
        }
        baseline_engine, baseline = next(iter(observations.items()))
        diverged = False
        for engine, obs in observations.items():
            if obs != baseline:
                report.divergences.append(
                    f"seed={seed} iter={index}: {engine} disagrees "
                    f"with {baseline_engine}: {obs!r} != {baseline!r}")
                diverged = True
        if diverged:
            continue
        if baseline["kind"] == "rejected":
            report.rejected += 1
        else:
            report.compared += 1
    return report
