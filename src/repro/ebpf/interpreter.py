"""The eBPF bytecode VM.

Executes programs concretely against the simulated kernel.  The VM
enforces *nothing*: safety is whatever the verifier proved plus
whatever the helpers actually do — which is the paper's point.  Every
load/store goes through the kernel's checked memory, so an unverified
assumption (a buggy helper, a miscompiled branch, a fabricated
pointer) ends in a genuine kernel oops, not a Python traceback.

Programs run under ``rcu_read_lock`` with preemption disabled, exactly
like real eBPF — which is why a non-terminating program causes RCU
stalls (§2.2).  Long ``bpf_loop`` runs are *fast-forwarded*: after a
sampled prefix of concrete iterations, the remaining iterations charge
virtual time at the measured per-iteration cost.  This keeps the
paper's 800-second stall (and far longer) executable in milliseconds
of host time while preserving the linear runtime-vs-iterations law the
experiment measures.

Three execution engines share the semantics:

* ``interp`` (``_run_frame_slow``) decodes each ``Insn`` as it
  executes — the original reference path, kept as the
  differential-testing baseline.
* ``fast`` (``_run_frame_fast``) drives a :class:`~repro.ebpf.\
predecode.PredecodedProgram` dispatch table built at load time, and
  charges virtual time in *batches*: straight-line blocks accumulate a
  pending instruction count that is flushed to ``kernel.work()`` only
  at observation points — memory accesses, helper calls, subprogram
  calls, taken backward edges, and frame exit — so the clock reads
  identically to per-insn accounting everywhere it can be observed.
* ``compiled`` (:mod:`repro.ebpf.compile`) lowers the dispatch table
  to generated Python — one straight-line statement run per basic
  block, registers as locals — ``exec``-compiled once per program by
  this VM and shared through the load cache.  Helpers, memory, atomics
  and tail calls still route through this VM, so fault injection and
  telemetry see the same world.

The VM picks each program's tier (:meth:`BpfVm.tier`): ``fast`` until
the program has run more than :data:`COMPILE_AFTER_RUNS` times, then
``compiled`` — at once when the load cache already holds a compiled
artifact for its bytes.  ``engine`` on :class:`BpfVm` pins every
program to one tier instead; the differential suites and reference
audits use the pin.  All engines must stay observationally identical
(see
``tests/ebpf/test_fastpath_differential.py``,
``tests/ebpf/test_malformed_differential.py`` and
``tests/ebpf/test_tiering.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Callable, Iterator, List, Optional,
                    Sequence)

from repro.ebpf import isa
from repro.ebpf.bugs import BugConfig
from repro.ebpf.compile import CompiledProgram, compile_program
from repro.ebpf.helpers.base import HelperCallContext
from repro.ebpf.isa import Insn, to_s64, to_u64
from repro.ebpf.predecode import (
    FUNC_PTR_BASE, K_ALU32_K, K_ALU32_X, K_ALU64_K, K_ALU64_X,
    K_ATOMIC, K_BAD, K_CALL_HELPER, K_CALL_SUB, K_EXIT, K_JA,
    K_JMP32_K, K_JMP32_X, K_JMP_K, K_JMP_X, K_LD_IMM64, K_LDX,
    K_MOV32_K, K_MOV32_X, K_MOV64_K, K_MOV64_X, K_ST, K_STX,
    MAP_PTR_BASE, A_ADD, A_AND, A_ARSH, A_DIV, A_LSH, A_MOD, A_MUL,
    A_NEG, A_OR, A_RSH, A_SUB, A_XOR, J_EQ, J_GE, J_GT, J_LE, J_LT,
    J_NE, J_SET, J_SGE, J_SGT, J_SLE, J_SLT, PredecodedProgram,
    predecode,
)
from repro.errors import BpfRuntimeError, KernelOops
from repro.kernel.kernel import Kernel

if TYPE_CHECKING:
    from repro.ebpf.loader import LoadedProgram

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

_H64 = 1 << 63
_F64 = 1 << 64
_H32 = 1 << 31
_F32 = 1 << 32

#: the three execution tiers, slowest to fastest
ENGINES = ("interp", "fast", "compiled")

#: the tier every VM built without an ``engine`` is pinned to; None
#: lets each VM pick per program.  The corpus differential patches it.
DEFAULT_ENGINE: Optional[str] = None

#: runs of one program on ``fast`` before the VM compiles it.  A
#: compile pays off after compile cost / saving per run: ~60 runs for
#: the straight-line programs of perfbench's load_churn pool (1.21 ms /
#: 0.020 ms on a 2-vCPU host) and ~90-150 for the XDP firewall.  Any
#: value from 5 to ~500 keeps programs that run a few times per load
#: (load_churn: 2, a fleet soak: 4) on ``fast`` and compiles the
#: firewall within xdp_firewall's 512-packet warm-up.
COMPILE_AFTER_RUNS = 64


def _cond_eval(cond: int, d: int, s: int, half: int, full: int) -> bool:
    """Evaluate one predecoded conditional-jump condition."""
    if cond == J_EQ:
        return d == s
    if cond == J_NE:
        return d != s
    if cond == J_GT:
        return d > s
    if cond == J_GE:
        return d >= s
    if cond == J_LT:
        return d < s
    if cond == J_LE:
        return d <= s
    if cond == J_SET:
        return bool(d & s)
    sd = d - full if d & half else d
    ss = s - full if s & half else s
    if cond == J_SGT:
        return sd > ss
    if cond == J_SGE:
        return sd >= ss
    if cond == J_SLT:
        return sd < ss
    return sd <= ss


def _cond_eval_imm(cond: int, d: int, s_u: int, s_s: int, half: int,
                   full: int) -> bool:
    """Immediate-form conditional: the slot carries both the unsigned
    and the predecoded signed view of the immediate, so only the
    register operand ever needs its sign re-derived."""
    if cond == J_EQ:
        return d == s_u
    if cond == J_NE:
        return d != s_u
    if cond == J_GT:
        return d > s_u
    if cond == J_GE:
        return d >= s_u
    if cond == J_LT:
        return d < s_u
    if cond == J_LE:
        return d <= s_u
    if cond == J_SET:
        return bool(d & s_u)
    sd = d - full if d & half else d
    if cond == J_SGT:
        return sd > s_s
    if cond == J_SGE:
        return sd >= s_s
    if cond == J_SLT:
        return sd < s_s
    return sd <= s_s


class TailCallRequest(Exception):
    """Raised by ``bpf_tail_call`` to unwind into the dispatch loop."""

    def __init__(self, prog: object) -> None:
        super().__init__("tail call")
        self.prog = prog


class BpfVm:
    """One execution engine bound to a kernel and the bpf subsystem."""

    def __init__(self, kernel: Kernel, subsystem: "object",
                 bugs: Optional[BugConfig] = None,
                 loop_sample_limit: int = 256,
                 engine: Optional[str] = None) -> None:
        self.kernel = kernel
        self.subsystem = subsystem
        self.bugs = bugs or BugConfig()
        #: concrete iterations executed before fast-forwarding a loop
        self.loop_sample_limit = loop_sample_limit
        engine = DEFAULT_ENGINE if engine is None else engine
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {ENGINES}")
        #: the tier every program is pinned to; None lets the VM pick
        self.engine = engine
        #: programs this VM compiled (the only place programs compile)
        self.compiles = 0
        self.insns_executed = 0
        #: crossings from verified bytecode into unverified kernel C
        self.helper_calls = 0
        #: register file at the most recent top-frame EXIT (one list
        #: copy per invocation; the differential fuzzer compares it)
        self.last_exit_regs: Optional[List[int]] = None
        self._prandom_state = 0x2545F491
        self._current_prog: Optional[object] = None
        self._insns: List[Insn] = []
        self._decoded: Optional[PredecodedProgram] = None
        self._compiled: Optional[CompiledProgram] = None
        #: redirect target stashed by ``bpf_redirect_map`` for the
        #: data plane to consume after the current invocation returns
        #: XDP_REDIRECT (``None`` when no redirect is pending)
        self.pending_redirect: Optional[int] = None

    # -- SMP context switching ------------------------------------------------

    def save_smp_state(self) -> tuple:
        """Snapshot the per-program activation state.

        The VM is a shared singleton, but under a deterministic SMP
        run each logical task owns its own program binding: the
        scheduler saves this at every suspension and restores it when
        the task resumes, so interleaved tasks running *different*
        programs (or mid-tail-call chains) never see each other's
        dispatch tables or pending redirect."""
        return (self._current_prog, self._insns, self._decoded,
                self._compiled, self.pending_redirect)

    def restore_smp_state(self, state: Optional[tuple]) -> None:
        """Counterpart of :meth:`save_smp_state`; None (a task's first
        scheduling) resets to the unbound state."""
        if state is None:
            self._current_prog = None
            self._insns = []
            self._decoded = None
            self._compiled = None
            self.pending_redirect = None
        else:
            (self._current_prog, self._insns, self._decoded,
             self._compiled, self.pending_redirect) = state

    # -- identity used for refcount/lock/fault attribution -----------------

    @property
    def prog_tag(self) -> str:
        """Attribution tag of the running program."""
        if self._current_prog is None:
            return "bpf"
        return f"bpf:{self._current_prog.name}"

    # -- top-level dispatch ---------------------------------------------------

    def run(self, prog: LoadedProgram, ctx_addr: int) -> int:
        """Run a loaded program on a context address, with the real
        eBPF execution environment: RCU read lock held, preemption
        off, tail calls honoured up to the chain limit.

        While ``telemetry.stats_enabled`` is on (the
        ``kernel.bpf_stats_enabled`` model), each invocation is folded
        into the program's ``run_cnt`` / ``run_time_ns`` / insn
        accounting; when it is off this wrapper costs one attribute
        test and nothing per instruction."""
        telemetry = self.kernel.telemetry
        if not telemetry.stats_enabled:
            return self._run_locked(prog, ctx_addr)
        clock = self.kernel.clock
        start_ns = clock.now_ns
        start_insns = self.insns_executed
        start_helpers = self.helper_calls
        try:
            return self._run_locked(prog, ctx_addr)
        finally:
            telemetry.record_run(
                "ebpf", prog.name,
                run_time_ns=clock.now_ns - start_ns,
                insns=self.insns_executed - start_insns,
                helper_calls=self.helper_calls - start_helpers)

    def _run_locked(self, prog: LoadedProgram, ctx_addr: int) -> int:
        """The uninstrumented execution environment (see :meth:`run`)."""
        cpu = self.kernel.current_cpu
        rcu = self.kernel.rcu
        rcu.read_lock(holder=f"bpf:{prog.name}")
        cpu.preempt_disable()
        try:
            prog.runs += 1
            self._activate(prog)
            try:
                return self._run_frame(0, [0] * 11, ctx_addr, depth=0)
            except TailCallRequest as req:
                return self._finish_tail_calls(req.prog, ctx_addr)
        finally:
            self._current_prog = None
            cpu.preempt_enable()
            rcu.read_unlock()

    def tier(self, prog: LoadedProgram) -> str:
        """The tier ``prog`` runs on at its current run count: the
        VM's pin when it has one, else ``compiled`` once the program
        has a compiled artifact or has run more than
        :data:`COMPILE_AFTER_RUNS` times, else ``fast``."""
        if self.engine is not None:
            return self.engine
        if prog.compiled is not None or prog.runs > COMPILE_AFTER_RUNS:
            return "compiled"
        return "fast"

    def _activate(self, prog: LoadedProgram) -> None:
        """Bind the VM's frame-execution state to ``prog``: its
        runnable instructions plus the dispatch table / compiled frame
        function its tier needs.  Called only between runs, so a
        program never changes tier inside one."""
        self._current_prog = prog
        self._insns = prog.runnable_insns()
        tier = self.tier(prog)
        if tier == "interp":
            self._decoded = None
            self._compiled = None
        else:
            self._decoded = self._decoded_for(prog)
            self._compiled = self._compiled_for(prog) \
                if tier == "compiled" else None

    def _finish_tail_calls(self, prog: LoadedProgram,
                           ctx_addr: int) -> int:
        """Service a tail-call chain starting at ``prog``, honouring
        the chain limit."""
        tail_calls = 0
        while True:
            tail_calls += 1
            if tail_calls > self.subsystem.limits.max_tail_calls:
                raise BpfRuntimeError(
                    "tail call chain exceeded "
                    f"{self.subsystem.limits.max_tail_calls}")
            prog.runs += 1
            self._activate(prog)
            try:
                return self._run_frame(0, [0] * 11, ctx_addr, depth=0)
            except TailCallRequest as req:
                # keep the program, not the request: a request held
                # past its except block would sit in a cycle with its
                # own traceback, keeping the target program alive
                prog = req.prog

    def take_redirect(self) -> Optional[int]:
        """Consume the redirect target stashed by the most recent
        ``bpf_redirect_map`` call (one-shot; ``None`` when the last
        invocation never asked for a redirect)."""
        target = self.pending_redirect
        if target is not None:
            self.pending_redirect = None
        return target

    @contextmanager
    def batch_runner(self, prog: LoadedProgram
                     ) -> Iterator[Callable[[int], int]]:
        """One RCU/preempt critical section around many invocations.

        The XDP data plane processes packets in NAPI-style bursts:
        the driver enters the execution environment once, then runs
        the attached program on every buffer of the batch, so the
        per-packet cost is one frame execution and nothing else.
        This context manager models exactly that — it takes the RCU
        read lock, disables preemption and binds the program's tier
        *once*, then yields a ``run_one(ctx_addr) -> verdict``
        callable for the hot loop.  Each packet counts as one run, and
        the program is re-bound before the packet that takes it past
        :data:`COMPILE_AFTER_RUNS`.  Tail calls are honoured
        per invocation (the chain limit applies per packet, as in
        :meth:`run`), per-run stats are recorded while
        ``telemetry.stats_enabled`` is on, and the critical section
        is released even when a fault unwinds the batch.
        """
        kernel = self.kernel
        cpu = kernel.current_cpu
        rcu = kernel.rcu
        rcu.read_lock(holder=f"bpf:{prog.name}")
        cpu.preempt_disable()
        self._activate(prog)
        telemetry = kernel.telemetry
        clock = kernel.clock
        picks = self.engine is None

        def run_frame(ctx_addr: int) -> int:
            """One invocation inside the held critical section."""
            prog.runs += 1
            if picks and self._compiled is None \
                    and prog.runs > COMPILE_AFTER_RUNS:
                self._activate(prog)
            try:
                return self._run_frame(0, [0] * 11, ctx_addr, depth=0)
            except TailCallRequest as req:
                try:
                    return self._finish_tail_calls(req.prog, ctx_addr)
                finally:
                    # the next packet starts at the root program
                    self._activate(prog)

        def run_one(ctx_addr: int) -> int:
            """One packet through the attached program (stats-aware)."""
            if not telemetry.stats_enabled:
                return run_frame(ctx_addr)
            start_ns = clock.now_ns
            start_insns = self.insns_executed
            start_helpers = self.helper_calls
            try:
                return run_frame(ctx_addr)
            finally:
                telemetry.record_run(
                    "ebpf", prog.name,
                    run_time_ns=clock.now_ns - start_ns,
                    insns=self.insns_executed - start_insns,
                    helper_calls=self.helper_calls - start_helpers)

        try:
            yield run_one
        finally:
            self._current_prog = None
            cpu.preempt_enable()
            rcu.read_unlock()

    def _decoded_for(self, prog: LoadedProgram) -> PredecodedProgram:
        """The program's dispatch table, predecoding lazily if the
        loader didn't attach one (e.g. hand-built test programs)."""
        decoded = prog.predecoded
        if decoded is not None and decoded.n_insns == len(self._insns):
            return decoded
        decoded = prog.predecoded = predecode(self._insns)
        return decoded

    def _compiled_for(self, prog: LoadedProgram) -> CompiledProgram:
        """The program's compiled frame function.  This is the one
        place a program is compiled: the artifact goes on the program
        and on its load-cache entry, so a reload of the same bytes
        starts compiled, and the compile time goes on the program's
        telemetry row."""
        compiled = prog.compiled
        if compiled is not None and \
                compiled.n_insns == len(self._insns):
            return compiled
        start = time.perf_counter()
        compiled = prog.compiled = compile_program(self._decoded)
        self.kernel.telemetry.record_compile(
            "ebpf", prog.name,
            int((time.perf_counter() - start) * 1e9))
        self.compiles += 1
        if prog.cache_entry is not None:
            prog.cache_entry.compiled = compiled
        return compiled

    # -- frame execution ---------------------------------------------------------

    def _run_frame(self, start_idx: int, caller_regs: Sequence[int],
                   ctx_addr: Optional[int], depth: int) -> int:
        """Execute from ``start_idx`` to EXIT in a fresh frame.

        The compiled tier handles every statically-known frame entry
        (block leaders: program start, subprogram and callback
        targets); a dynamic entry it didn't see at compile time — an
        arbitrary callback index fabricated at run time — falls back
        to the dispatch-table executor, which accepts any pc."""
        compiled = self._compiled
        if compiled is not None:
            block = compiled.entry_blocks.get(start_idx)
            if block is not None:
                return compiled.func(self, caller_regs, ctx_addr,
                                     depth, block)
        if self._decoded is not None:
            return self._run_frame_fast(start_idx, caller_regs,
                                        ctx_addr, depth)
        return self._run_frame_slow(start_idx, caller_regs, ctx_addr,
                                    depth)

    def _run_frame_fast(self, start_idx: int,
                        caller_regs: Sequence[int],
                        ctx_addr: Optional[int], depth: int) -> int:
        """Dispatch-table executor with batched clock accounting.

        ``pending`` counts instructions executed since the last flush;
        every point where the virtual clock or ``insns_executed`` is
        observable from outside the frame (memory, helpers, subprog
        calls, backward edges, exit, and any raised fault) flushes
        first, so totals agree with the decode-per-step path exactly.
        """
        if depth > 8:
            raise BpfRuntimeError("call depth exceeded at run time")
        kernel = self.kernel
        mem = kernel.mem
        mem_read = mem.read
        mem_write = mem.write
        work = kernel.work
        tag = self.prog_tag
        stack = mem.kmalloc(512, type_name="bpf_stack", owner=tag)
        regs = [0] * 11
        if ctx_addr is not None:
            regs[1] = ctx_addr & U64
        else:
            regs[1:6] = [v & U64 for v in caller_regs[1:6]]
        regs[10] = stack.base + 512
        slots = self._decoded.slots
        n = len(slots)
        idx = start_idx
        pending = 0
        try:
            while True:
                if not 0 <= idx < n:
                    raise BpfRuntimeError(f"pc out of range: {idx}")
                slot = slots[idx]
                kind = slot[0]
                pending += 1

                if kind == K_ALU64_K or kind == K_ALU64_X:
                    op = slot[1]
                    dr = slot[2]
                    s = regs[slot[3]] if kind == K_ALU64_X else slot[3]
                    d = regs[dr]
                    if op == A_ADD:
                        regs[dr] = (d + s) & U64
                    elif op == A_SUB:
                        regs[dr] = (d - s) & U64
                    elif op == A_AND:
                        regs[dr] = d & s
                    elif op == A_OR:
                        regs[dr] = d | s
                    elif op == A_XOR:
                        regs[dr] = d ^ s
                    elif op == A_MUL:
                        regs[dr] = (d * s) & U64
                    elif op == A_LSH:
                        regs[dr] = (d << (s & 63)) & U64
                    elif op == A_RSH:
                        regs[dr] = d >> (s & 63)
                    elif op == A_DIV:
                        regs[dr] = d // s if s else 0
                    elif op == A_MOD:
                        regs[dr] = d % s if s else d
                    elif op == A_ARSH:
                        sd = d - _F64 if d & _H64 else d
                        regs[dr] = (sd >> (s & 63)) & U64
                    elif op == A_NEG:
                        regs[dr] = (-d) & U64
                    else:
                        raise BpfRuntimeError(
                            f"unsupported ALU op {op:#x}")
                    idx += 1
                    continue

                if kind == K_MOV64_K:
                    regs[slot[1]] = slot[2]
                    idx += 1
                    continue
                if kind == K_MOV64_X:
                    regs[slot[1]] = regs[slot[2]]
                    idx += 1
                    continue

                if kind == K_JMP_K or kind == K_JMP_X:
                    d = regs[slot[2]]
                    if kind == K_JMP_X:
                        taken = _cond_eval(slot[1], d, regs[slot[3]],
                                           _H64, _F64)
                        target, backward = slot[4], slot[5]
                    else:
                        taken = _cond_eval_imm(slot[1], d, slot[3],
                                               slot[4], _H64, _F64)
                        target, backward = slot[5], slot[6]
                    if taken:
                        if backward:
                            self.insns_executed += pending
                            work(pending)
                            pending = 0
                        idx = target
                    else:
                        idx += 1
                    continue

                if kind == K_LDX:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    addr = (regs[slot[2]] + slot[3]) & U64
                    regs[slot[1]] = int.from_bytes(
                        mem_read(addr, slot[4], source=tag), "little")
                    idx += 1
                    continue
                if kind == K_STX:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    addr = (regs[slot[1]] + slot[3]) & U64
                    value = regs[slot[2]] & slot[5]
                    mem_write(addr, value.to_bytes(slot[4], "little"),
                              source=tag)
                    idx += 1
                    continue
                if kind == K_ST:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    addr = (regs[slot[1]] + slot[2]) & U64
                    mem_write(addr, slot[3], source=tag)
                    idx += 1
                    continue
                if kind == K_ATOMIC:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    addr = (regs[slot[1]] + slot[3]) & U64
                    self._atomic_rmw(regs, slot[5], addr, slot[4],
                                     slot[2], mem, tag)
                    idx += 1
                    continue

                if kind == K_ALU32_K or kind == K_ALU32_X:
                    op = slot[1]
                    dr = slot[2]
                    s = regs[slot[3]] & U32 if kind == K_ALU32_X \
                        else slot[3]
                    d = regs[dr] & U32
                    if op == A_ADD:
                        regs[dr] = (d + s) & U32
                    elif op == A_SUB:
                        regs[dr] = (d - s) & U32
                    elif op == A_AND:
                        regs[dr] = d & s
                    elif op == A_OR:
                        regs[dr] = d | s
                    elif op == A_XOR:
                        regs[dr] = d ^ s
                    elif op == A_MUL:
                        regs[dr] = (d * s) & U32
                    elif op == A_LSH:
                        regs[dr] = (d << (s & 31)) & U32
                    elif op == A_RSH:
                        regs[dr] = d >> (s & 31)
                    elif op == A_DIV:
                        regs[dr] = d // s if s else 0
                    elif op == A_MOD:
                        regs[dr] = d % s if s else d
                    elif op == A_ARSH:
                        sd = d - _F32 if d & _H32 else d
                        regs[dr] = (sd >> (s & 31)) & U32
                    elif op == A_NEG:
                        regs[dr] = (-d) & U32
                    else:
                        raise BpfRuntimeError(
                            f"unsupported ALU op {op:#x}")
                    idx += 1
                    continue
                if kind == K_MOV32_K:
                    regs[slot[1]] = slot[2]
                    idx += 1
                    continue
                if kind == K_MOV32_X:
                    regs[slot[1]] = regs[slot[2]] & U32
                    idx += 1
                    continue

                if kind == K_JMP32_K or kind == K_JMP32_X:
                    d = regs[slot[2]] & U32
                    if kind == K_JMP32_X:
                        taken = _cond_eval(slot[1], d,
                                           regs[slot[3]] & U32,
                                           _H32, _F32)
                        target, backward = slot[4], slot[5]
                    else:
                        taken = _cond_eval_imm(slot[1], d, slot[3],
                                               slot[4], _H32, _F32)
                        target, backward = slot[5], slot[6]
                    if taken:
                        if backward:
                            self.insns_executed += pending
                            work(pending)
                            pending = 0
                        idx = target
                    else:
                        idx += 1
                    continue

                if kind == K_LD_IMM64:
                    regs[slot[1]] = slot[2]
                    idx = slot[3]
                    continue
                if kind == K_JA:
                    if slot[2]:
                        self.insns_executed += pending
                        work(pending)
                        pending = 0
                    idx = slot[1]
                    continue
                if kind == K_CALL_HELPER:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    regs[0] = self._call_helper(slot[1], regs)
                    idx += 1
                    continue
                if kind == K_CALL_SUB:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    regs[0] = self._run_frame_fast(slot[1], regs,
                                                   None, depth + 1)
                    idx += 1
                    continue
                if kind == K_EXIT:
                    self.insns_executed += pending
                    work(pending)
                    pending = 0
                    if depth == 0:
                        self.last_exit_regs = list(regs)
                    return regs[0]
                # K_BAD and anything unexpected
                raise BpfRuntimeError(slot[1] if kind == K_BAD else
                                      f"undecodable slot at {idx}")
        finally:
            if pending:
                self.insns_executed += pending
                work(pending)
            if not stack.freed:
                mem.kfree(stack)

    def _run_frame_slow(self, start_idx: int,
                        caller_regs: Sequence[int],
                        ctx_addr: Optional[int], depth: int) -> int:
        """Decode-per-step executor (reference/differential baseline)."""
        if depth > 8:
            raise BpfRuntimeError("call depth exceeded at run time")
        mem = self.kernel.mem
        stack = mem.kmalloc(512, type_name="bpf_stack",
                            owner=self.prog_tag)
        regs = [0] * 11
        if ctx_addr is not None:
            regs[1] = to_u64(ctx_addr)
        else:
            regs[1:6] = [to_u64(v) for v in caller_regs[1:6]]
        regs[10] = stack.base + 512
        insns = self._insns
        idx = start_idx
        try:
            while True:
                if not 0 <= idx < len(insns):
                    raise BpfRuntimeError(f"pc out of range: {idx}")
                insn = insns[idx]
                self.insns_executed += 1
                self.kernel.work(1)
                cls = insn.insn_class

                if insn.is_ld_imm64:
                    regs[insn.dst] = self._ld_imm64_value(insn, insns,
                                                          idx)
                    idx += 2
                    continue
                if cls in (isa.BPF_ALU, isa.BPF_ALU64):
                    self._alu(regs, insn, cls == isa.BPF_ALU64)
                    idx += 1
                    continue
                if cls == isa.BPF_LDX:
                    size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
                    addr = to_u64(regs[insn.src] + insn.off)
                    raw = mem.read(addr, size, source=self.prog_tag)
                    regs[insn.dst] = int.from_bytes(raw, "little")
                    idx += 1
                    continue
                if cls in (isa.BPF_STX, isa.BPF_ST):
                    size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
                    addr = to_u64(regs[insn.dst] + insn.off)
                    if cls == isa.BPF_STX and \
                            (insn.opcode & isa.MODE_MASK) == \
                            isa.BPF_ATOMIC:
                        self._atomic_rmw(regs, insn.imm, addr, size,
                                         insn.src, mem, self.prog_tag)
                        idx += 1
                        continue
                    value = regs[insn.src] if cls == isa.BPF_STX \
                        else to_u64(insn.imm)
                    mem.write(addr,
                              (value & ((1 << (size * 8)) - 1)).to_bytes(
                                  size, "little"),
                              source=self.prog_tag)
                    idx += 1
                    continue
                if cls in (isa.BPF_JMP, isa.BPF_JMP32):
                    op = insn.opcode & isa.JMP_OP_MASK
                    if op == isa.BPF_EXIT:
                        if depth == 0:
                            self.last_exit_regs = list(regs)
                        return regs[0]
                    if op == isa.BPF_JA:
                        idx = idx + insn.off + 1
                        continue
                    if op == isa.BPF_CALL:
                        if insn.src == isa.BPF_PSEUDO_CALL:
                            target = idx + insn.imm + 1
                            regs[0] = self._run_frame_slow(
                                target, regs, None, depth + 1)
                        else:
                            regs[0] = self._call_helper(insn.imm, regs)
                        idx += 1
                        continue
                    if self._jump_taken(op, insn, regs):
                        idx = idx + insn.off + 1
                    else:
                        idx += 1
                    continue
                raise BpfRuntimeError(
                    f"unsupported opcode {insn.opcode:#04x} at {idx}")
        finally:
            if not stack.freed:
                mem.kfree(stack)

    # -- instruction semantics -----------------------------------------------------

    def _atomic_rmw(self, regs: List[int], imm: int, addr: int,
                    size: int, src: int, mem: object,
                    tag: str) -> None:
        """One ``BPF_ATOMIC`` read-modify-write, selected by ``imm``.

        Implements the Linux sub-op encoding: ADD/OR/AND/XOR
        (optionally ``| BPF_FETCH`` to load the old value into the
        source register), XCHG, and CMPXCHG (R0 is the comparand and
        receives the old value).  Unknown sub-ops raise *before*
        touching memory.

        Under a deterministic SMP run the whole RMW is one
        indivisible step: there is a yield point *before* it, then the
        constituent load and store are tagged atomic for the race
        detector and cannot be interleaved — atomic-vs-atomic
        accesses are not races, which is exactly what makes
        lock-free per-counter increments pass the race hunt.
        """
        smp = self.kernel.smp
        if smp is not None:
            smp.yield_point("atomic", tag)
            with smp.atomic_scope():
                self._atomic_rmw_body(regs, imm, addr, size, src, mem,
                                      tag)
            return
        self._atomic_rmw_body(regs, imm, addr, size, src, mem, tag)

    def _atomic_rmw_body(self, regs: List[int], imm: int, addr: int,
                         size: int, src: int, mem: object,
                         tag: str) -> None:
        width_mask = (1 << (size * 8)) - 1
        if imm == isa.BPF_CMPXCHG:
            old = int.from_bytes(mem.read(addr, size, source=tag),
                                 "little")
            if old == (regs[0] & width_mask):
                mem.write(addr,
                          (regs[src] & width_mask).to_bytes(size,
                                                            "little"),
                          source=tag)
            regs[0] = old
            return
        if imm == isa.BPF_XCHG:
            old = int.from_bytes(mem.read(addr, size, source=tag),
                                 "little")
            mem.write(addr,
                      (regs[src] & width_mask).to_bytes(size, "little"),
                      source=tag)
            regs[src] = old
            return
        op = imm & ~isa.BPF_FETCH
        if op not in (isa.BPF_ADD, isa.BPF_OR, isa.BPF_AND,
                      isa.BPF_XOR):
            raise BpfRuntimeError(f"unsupported atomic op {imm:#x}")
        old = int.from_bytes(mem.read(addr, size, source=tag),
                             "little")
        if op == isa.BPF_ADD:
            new = (old + regs[src]) & width_mask
        elif op == isa.BPF_OR:
            new = (old | regs[src]) & width_mask
        elif op == isa.BPF_AND:
            new = (old & regs[src]) & width_mask
        else:
            new = (old ^ regs[src]) & width_mask
        mem.write(addr, new.to_bytes(size, "little"), source=tag)
        if imm & isa.BPF_FETCH:
            regs[src] = old

    def _ld_imm64_value(self, insn: Insn, insns: List[Insn],
                        idx: int) -> int:
        if idx + 1 >= len(insns):
            # same outcome as the predecoded K_BAD slot: a truncated
            # ld_imm64 (any form) is a runtime decode error, never a
            # raw IndexError
            raise BpfRuntimeError(f"incomplete ld_imm64 at {idx}")
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            return MAP_PTR_BASE + insn.imm
        if insn.src == isa.BPF_PSEUDO_FUNC:
            return FUNC_PTR_BASE + (idx + insn.imm + 1)
        hi = insns[idx + 1].imm & 0xFFFFFFFF
        return (hi << 32) | (insn.imm & 0xFFFFFFFF)

    def _alu(self, regs: List[int], insn: Insn, is64: bool) -> None:
        op = insn.opcode & isa.ALU_OP_MASK
        if insn.opcode & isa.BPF_X:
            src = regs[insn.src]
        else:
            src = to_u64(insn.imm)  # sign-extended to 64 bits
        dst = regs[insn.dst]
        if not is64:
            dst &= U32
            src &= U32
        width_mask = U64 if is64 else U32

        if op == isa.BPF_MOV:
            result = src
        elif op == isa.BPF_ADD:
            result = dst + src
        elif op == isa.BPF_SUB:
            result = dst - src
        elif op == isa.BPF_MUL:
            result = dst * src
        elif op == isa.BPF_DIV:
            result = dst // src if src else 0
        elif op == isa.BPF_MOD:
            result = dst % src if src else dst
        elif op == isa.BPF_OR:
            result = dst | src
        elif op == isa.BPF_AND:
            result = dst & src
        elif op == isa.BPF_XOR:
            result = dst ^ src
        elif op == isa.BPF_LSH:
            result = dst << (src & (63 if is64 else 31))
        elif op == isa.BPF_RSH:
            result = dst >> (src & (63 if is64 else 31))
        elif op == isa.BPF_ARSH:
            bits = 64 if is64 else 32
            shift = src & (bits - 1)
            signed = to_s64(dst) if is64 else \
                (dst - (1 << 32) if dst & (1 << 31) else dst)
            result = signed >> shift
        elif op == isa.BPF_NEG:
            result = -dst
        else:
            raise BpfRuntimeError(f"unsupported ALU op {op:#x}")
        regs[insn.dst] = result & width_mask

    def _jump_taken(self, op: int, insn: Insn, regs: List[int]) -> bool:
        dst = regs[insn.dst]
        src = regs[insn.src] if insn.opcode & isa.BPF_X \
            else to_u64(insn.imm)
        if insn.insn_class == isa.BPF_JMP32:
            dst &= U32
            src &= U32
            sdst = dst - (1 << 32) if dst & (1 << 31) else dst
            ssrc = src - (1 << 32) if src & (1 << 31) else src
        else:
            sdst, ssrc = to_s64(dst), to_s64(src)
        table = {
            isa.BPF_JEQ: dst == src,
            isa.BPF_JNE: dst != src,
            isa.BPF_JGT: dst > src,
            isa.BPF_JGE: dst >= src,
            isa.BPF_JLT: dst < src,
            isa.BPF_JLE: dst <= src,
            isa.BPF_JSET: bool(dst & src),
            isa.BPF_JSGT: sdst > ssrc,
            isa.BPF_JSGE: sdst >= ssrc,
            isa.BPF_JSLT: sdst < ssrc,
            isa.BPF_JSLE: sdst <= ssrc,
        }
        if op not in table:
            raise BpfRuntimeError(f"unsupported jump op {op:#x}")
        return table[op]

    # -- helper plumbing -------------------------------------------------------------

    def _call_helper(self, helper_id: int, regs: List[int]) -> int:
        spec = self.subsystem.registry.get(helper_id)
        if spec is None or spec.impl is None:
            raise BpfRuntimeError(f"call to unknown helper {helper_id}")
        self.helper_calls += 1
        telemetry = self.kernel.telemetry
        if telemetry.stats_enabled and self._current_prog is not None:
            telemetry.record_helper("ebpf", self._current_prog.name,
                                    spec.name)
        # a helper call is far more work than one bytecode insn
        self.kernel.work(20 + spec.callgraph_size // 50)
        smp = self.kernel.smp
        if smp is not None:
            smp.yield_point("helper", spec.name)
        faults = self.kernel.faults
        if faults.armed:
            fault = faults.check(f"helper.{spec.name}")
            if fault is not None:
                if fault.kind == "errno":
                    return to_u64(-fault.errno)
                if fault.kind == "panic":
                    self.kernel.log.record_oops(
                        self.kernel.clock.now_ns,
                        f"injected panic in helper {spec.name}",
                        category="fault-injection",
                        source=self.prog_tag)
                    raise KernelOops(
                        f"injected panic in helper {spec.name}",
                        source=self.prog_tag)
                # delay: virtual time already charged; proceed
        ctx = HelperCallContext(self.kernel, self, regs[1:6],
                                self._current_prog)
        return to_u64(spec.impl(ctx))

    def resolve_map_ptr(self, value: int):
        """Map register value -> BpfMap (None if not a map pointer)."""
        if value < MAP_PTR_BASE or value > MAP_PTR_BASE + (1 << 20):
            return None
        return self.subsystem.map_by_fd(value - MAP_PTR_BASE)

    def find_map_by_value_addr(self, addr: int):
        """The map whose storage contains ``addr``, if any."""
        alloc = self.kernel.mem.find_allocation(addr)
        if alloc is None:
            return None
        for bpf_map in self.subsystem.all_maps():
            storage = getattr(bpf_map, "storage", None)
            if storage is not None and storage is alloc:
                return bpf_map
            per_cpu = getattr(bpf_map, "per_cpu_storage", None)
            if per_cpu is not None and alloc in per_cpu:
                return bpf_map
            entries = getattr(bpf_map, "_entries", None)
            if entries is not None and alloc in entries.values():
                return bpf_map
        return None

    def resolve_func_ptr(self, value: int) -> Optional[int]:
        """Callback register value -> instruction index."""
        if value < FUNC_PTR_BASE:
            return None
        target = value - FUNC_PTR_BASE
        if target >= len(self._insns):
            return None
        return target

    def request_tail_call(self, prog: object) -> None:
        """Unwind the current program and restart in ``prog``."""
        raise TailCallRequest(prog)

    def next_prandom(self) -> int:
        """Deterministic xorshift PRNG for bpf_get_prandom_u32."""
        x = self._prandom_state
        x ^= (x << 13) & U32
        x ^= x >> 17
        x ^= (x << 5) & U32
        self._prandom_state = x & U32
        return self._prandom_state

    def find_request_sock_for(self, sock: object):
        """The pending request sock linked to a listener, if any."""
        return getattr(sock, "pending_reqsk", None)

    # -- bpf_loop with fast-forward ----------------------------------------------------

    def execute_loop(self, callback_idx: int, nr_loops: int,
                     cb_ctx: int) -> int:
        """Run ``nr_loops`` callback iterations; after a sampled
        prefix, charge the remaining iterations' virtual time in bulk
        (see module docstring)."""
        if nr_loops == 0:
            return 0
        clock = self.kernel.clock
        start_ns = clock.now_ns
        start_insns = self.insns_executed
        executed = 0
        for index in range(min(nr_loops, self.loop_sample_limit)):
            ret = self._run_frame(callback_idx, [0, index, cb_ctx,
                                                 0, 0, 0], None, depth=1)
            executed += 1
            # kernel bpf_loop stops on any nonzero callback return,
            # not just 1
            if ret != 0:
                return executed
        remaining = nr_loops - executed
        if remaining > 0:
            per_iter_ns = max(
                (clock.now_ns - start_ns) // max(executed, 1), 1)
            per_iter_insns = max(
                (self.insns_executed - start_insns) // max(executed, 1),
                1)
            clock.advance(remaining * per_iter_ns)
            self.insns_executed += remaining * per_iter_insns
        return nr_loops
