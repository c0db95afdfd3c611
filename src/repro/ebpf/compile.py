"""The compiled execution tier: bytecode -> generated Python.

This is the reproduction's third engine, and the paper's argument in
miniature: all the work happens once, in a trusted load-time
toolchain, so the hot path carries no interpretive overhead at all.
Where the fast interpreter still fetches a slot tuple and walks a
dispatch chain for every instruction, this tier turns the predecoded
table into Python *source* — one straight-line run of statements per
basic block, registers bound as local variables — and ``exec``-compiles
it once.  CPython then does the dispatch at compile time instead of
run time.

The lowering mirrors ``_run_frame_fast`` statement for statement:

* programs are split into basic blocks at jump targets, fallthrough
  edges of conditional jumps, subprogram entry points, and callback
  (``BPF_PSEUDO_FUNC``) targets; a small integer block id drives a
  ``while``-loop dispatcher, so any block leader is a valid frame
  entry point (subprograms and ``bpf_loop`` callbacks reuse the same
  compiled function),
* registers live in locals ``r0``..``r10`` — no list indexing on the
  hot path,
* the virtual clock and ``insns_executed`` are flushed in batches at
  exactly the fast path's observation points (memory accesses, helper
  calls, subprogram calls, taken backward edges, frame exit, and the
  ``finally`` unwind), with straight-line instruction counts folded in
  as compile-time constants,
* immediates — including the predecoded signed views a conditional
  jump needs — are baked into the source as literals.

Safety stays exactly where it was: helpers, memory accesses, atomics
and tail calls all route back through :class:`~repro.ebpf.interpreter.\
BpfVm` and the kernel's checked memory, so fault injection, telemetry,
watchdog budgets and the recovery supervisor behave identically under
this tier.  Compilation is purely mechanical and proves nothing — an
unverified program compiles fine and still oopses the kernel at run
time; statically-bad slots (``K_BAD``, out-of-range targets) compile
to the same :class:`~repro.errors.BpfRuntimeError` raises the other
engines produce when execution actually reaches them.

Note the deliberate contrast with :mod:`repro.ebpf.jit`: that module
*models* a JIT as a second trusted component that can betray the
verifier (CVE-2021-29154's miscompiled branch); this module *is* a
real compiler whose output is kept honest by the differential
harness — every attack-corpus program, fuzz case and chaos schedule
must agree with both interpreters on result, accounting and failure
mode.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ebpf.predecode import (
    FUNC_PTR_BASE, K_ALU32_K, K_ALU32_X, K_ALU64_K, K_ALU64_X,
    K_ATOMIC, K_BAD, K_CALL_HELPER, K_CALL_SUB, K_EXIT, K_JA,
    K_JMP32_K, K_JMP32_X, K_JMP_K, K_JMP_X, K_LD_IMM64, K_LDX,
    K_MOV32_K, K_MOV32_X, K_MOV64_K, K_MOV64_X, K_ST, K_STX,
    A_ADD, A_AND, A_ARSH, A_DIV, A_LSH, A_MOD, A_MUL,
    A_OR, A_RSH, A_SUB, A_XOR, J_EQ, J_GE, J_GT, J_LE, J_LT,
    J_NE, J_SET, J_SGE, J_SGT, J_SLE, J_SLT, PredecodedProgram,
)
from repro.errors import BpfRuntimeError

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1
_H64 = 1 << 63
_F64 = 1 << 64
_H32 = 1 << 31
_F32 = 1 << 32

_REG_LIST = "[r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10]"

#: python comparison spelling per dense jump-condition id (J_SET is
#: handled separately: it is a mask test, not a comparison)
_CMP = {
    J_EQ: "==", J_NE: "!=", J_GT: ">", J_GE: ">=", J_LT: "<",
    J_LE: "<=", J_SGT: ">", J_SGE: ">=", J_SLT: "<", J_SLE: "<=",
}
_SIGNED = (J_SGT, J_SGE, J_SLT, J_SLE)


class CompiledProgram:
    """One program lowered to an ``exec``-compiled frame function.

    ``func(vm, caller_regs, ctx_addr, depth, block)`` executes one
    frame starting at the given block id; ``entry_blocks`` maps the
    instruction indices that are valid frame entry points (program
    start, subprogram targets, callback targets — every block leader)
    to their block ids.  ``source`` keeps the generated Python for
    inspection and tests.
    """

    __slots__ = ("func", "entry_blocks", "n_insns", "n_blocks",
                 "source")

    def __init__(self, func, entry_blocks: Dict[int, int],
                 n_insns: int, source: str) -> None:
        self.func = func
        self.entry_blocks = entry_blocks
        self.n_insns = n_insns
        self.n_blocks = len(set(entry_blocks.values()))
        self.source = source


def _leaders(slots: Tuple[tuple, ...]) -> List[int]:
    """Every basic-block leader, sorted.  Index 0 is always a leader
    (and the only one of an empty program, where it compiles to the
    same out-of-range raise the interpreters produce)."""
    n = len(slots)
    leaders = {0}
    for idx, slot in enumerate(slots):
        kind = slot[0]
        if kind == K_JA or kind == K_CALL_SUB:
            if 0 <= slot[1] < n:
                leaders.add(slot[1])
        elif kind == K_JMP_K or kind == K_JMP32_K:
            if 0 <= slot[5] < n:
                leaders.add(slot[5])
            if idx + 1 < n:
                leaders.add(idx + 1)
        elif kind == K_JMP_X or kind == K_JMP32_X:
            if 0 <= slot[4] < n:
                leaders.add(slot[4])
            if idx + 1 < n:
                leaders.add(idx + 1)
        elif kind == K_LD_IMM64 and slot[2] >= FUNC_PTR_BASE:
            # a materialised BPF_PSEUDO_FUNC constant: its target must
            # be enterable as a callback frame (bpf_loop et al.)
            target = slot[2] - FUNC_PTR_BASE
            if 0 <= target < n:
                leaders.add(target)
    return sorted(leaders)


def _alu64(slot: tuple, is_reg: bool) -> List[str]:
    """Statements for one 64-bit ALU slot (operands pre-resolved)."""
    op, d = slot[1], slot[2]
    s = f"r{slot[3]}" if is_reg else repr(slot[3])
    if op == A_ADD:
        return [f"r{d} = (r{d} + {s}) & U64"]
    if op == A_SUB:
        return [f"r{d} = (r{d} - {s}) & U64"]
    if op == A_AND:
        return [f"r{d} &= {s}"]
    if op == A_OR:
        return [f"r{d} |= {s}"]
    if op == A_XOR:
        return [f"r{d} ^= {s}"]
    if op == A_MUL:
        return [f"r{d} = (r{d} * {s}) & U64"]
    if op == A_LSH:
        shift = f"(r{slot[3]} & 63)" if is_reg else repr(slot[3] & 63)
        return [f"r{d} = (r{d} << {shift}) & U64"]
    if op == A_RSH:
        shift = f"(r{slot[3]} & 63)" if is_reg else repr(slot[3] & 63)
        return [f"r{d} >>= {shift}"]
    if op == A_DIV:
        if not is_reg:
            return [f"r{d} //= {s}"] if slot[3] else [f"r{d} = 0"]
        return [f"r{d} = r{d} // {s} if {s} else 0"]
    if op == A_MOD:
        if not is_reg:
            return [f"r{d} %= {s}"] if slot[3] else []
        return [f"r{d} = r{d} % {s} if {s} else r{d}"]
    if op == A_ARSH:
        shift = f"(r{slot[3]} & 63)" if is_reg else repr(slot[3] & 63)
        return [f"r{d} = ((r{d} - _F64 if r{d} & _H64 else r{d})"
                f" >> {shift}) & U64"]
    # A_NEG (the source operand is unused, like the fast path)
    return [f"r{d} = (-r{d}) & U64"]


def _alu32(slot: tuple, is_reg: bool) -> List[str]:
    """Statements for one 32-bit ALU slot (result zero-extends)."""
    op, d = slot[1], slot[2]
    s = f"(r{slot[3]} & U32)" if is_reg else repr(slot[3])
    if op == A_ADD:
        return [f"r{d} = ((r{d} & U32) + {s}) & U32"]
    if op == A_SUB:
        return [f"r{d} = ((r{d} & U32) - {s}) & U32"]
    if op == A_AND:
        return [f"r{d} = r{d} & U32 & {s}"]
    if op == A_OR:
        return [f"r{d} = (r{d} | {s}) & U32"]
    if op == A_XOR:
        return [f"r{d} = (r{d} ^ {s}) & U32"]
    if op == A_MUL:
        return [f"r{d} = ((r{d} & U32) * {s}) & U32"]
    if op == A_LSH:
        shift = f"(r{slot[3]} & 31)" if is_reg else repr(slot[3] & 31)
        return [f"r{d} = ((r{d} & U32) << {shift}) & U32"]
    if op == A_RSH:
        shift = f"(r{slot[3]} & 31)" if is_reg else repr(slot[3] & 31)
        return [f"r{d} = (r{d} & U32) >> {shift}"]
    if op == A_DIV:
        if not is_reg:
            return [f"r{d} = (r{d} & U32) // {s}"] if slot[3] \
                else [f"r{d} = 0"]
        return [f"_s = r{slot[3]} & U32",
                f"r{d} = (r{d} & U32) // _s if _s else 0"]
    if op == A_MOD:
        if not is_reg:
            # an x % 0 stays x — but still truncated to 32 bits
            return [f"r{d} = (r{d} & U32) % {s}"] if slot[3] \
                else [f"r{d} &= U32"]
        return [f"_s = r{slot[3]} & U32",
                f"r{d} = (r{d} & U32) % _s if _s else r{d} & U32"]
    if op == A_ARSH:
        shift = f"(r{slot[3]} & 31)" if is_reg else repr(slot[3] & 31)
        return [f"_d = r{d} & U32",
                f"r{d} = ((_d - _F32 if _d & _H32 else _d)"
                f" >> {shift}) & U32"]
    # A_NEG
    return [f"r{d} = (-(r{d} & U32)) & U32"]


def _cond_expr(slot: tuple, is_reg: bool, is32: bool,
               pre: List[str]) -> str:
    """The taken-branch condition of one predecoded jump slot.

    Register operands get their signed view derived inline (or via a
    temp emitted into ``pre`` for the 32-bit forms); immediate
    operands use the slot's precomputed unsigned/signed views as
    literals — the same contract ``_cond_eval_imm`` implements in the
    fast interpreter.
    """
    cond, d = slot[1], slot[2]
    if is32:
        d_u = f"(r{d} & U32)"
        half, full = "_H32", "_F32"
    else:
        d_u = f"r{d}"
        half, full = "_H64", "_F64"
    if is_reg:
        s_u = f"(r{slot[3]} & U32)" if is32 else f"r{slot[3]}"
        s_s = None
    else:
        s_u = repr(slot[3])
        s_s = repr(slot[4])
    if cond == J_SET:
        return f"{d_u} & {s_u}"
    if cond not in _SIGNED:
        return f"{d_u} {_CMP[cond]} {s_u}"
    if is32:
        pre.append(f"_d = r{d} & U32")
        d_s = f"(_d - {full} if _d & {half} else _d)"
    else:
        d_s = f"(r{d} - {full} if r{d} & {half} else r{d})"
    if s_s is None:
        if is32:
            pre.append(f"_s = r{slot[3]} & U32")
            s_s = f"(_s - {full} if _s & {half} else _s)"
        else:
            src = slot[3]
            s_s = f"(r{src} - {full} if r{src} & {half} else r{src})"
    return f"{d_s} {_CMP[cond]} {s_s}"


class _FrameWriter:
    """Accumulates the generated frame function line by line."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, indent: int, *stmts: str) -> None:
        """Append statements at the given indentation level."""
        pad = "    " * indent
        for stmt in stmts:
            self.lines.append(pad + stmt)

    def flush(self, indent: int, k: int) -> None:
        """Emit a clock/insns flush folding ``k`` statically-counted
        instructions into the dynamic ``pending`` — the exact sequence
        (and failure behaviour) of the fast path's flush points."""
        if k:
            self.emit(indent, f"pending += {k}")
        self.emit(indent,
                  "vm.insns_executed += pending",
                  "work(pending)",
                  "pending = 0")


def _emit_block(writer: _FrameWriter, slots: Tuple[tuple, ...],
                leader: int, block_of: Dict[int, int]) -> None:
    """Generate one basic block's body at dispatch indent."""
    n = len(slots)
    ind = 4           # inside: def / try / while / if b == N:
    idx = leader
    k = 0             # instructions executed since the last flush
    while True:
        if not 0 <= idx < n:
            if k:
                writer.emit(ind, f"pending += {k}")
            writer.emit(ind, f"raise BpfRuntimeError("
                             f"'pc out of range: {idx}')")
            return
        if idx != leader and idx in block_of:
            if k:
                writer.emit(ind, f"pending += {k}")
            writer.emit(ind, f"b = {block_of[idx]}", "continue")
            return
        slot = slots[idx]
        kind = slot[0]
        k += 1

        if kind == K_ALU64_K or kind == K_ALU64_X:
            writer.emit(ind, *_alu64(slot, kind == K_ALU64_X))
            idx += 1
            continue
        if kind == K_ALU32_K or kind == K_ALU32_X:
            writer.emit(ind, *_alu32(slot, kind == K_ALU32_X))
            idx += 1
            continue
        if kind == K_MOV64_K or kind == K_MOV32_K:
            writer.emit(ind, f"r{slot[1]} = {slot[2]!r}")
            idx += 1
            continue
        if kind == K_MOV64_X:
            writer.emit(ind, f"r{slot[1]} = r{slot[2]}")
            idx += 1
            continue
        if kind == K_MOV32_X:
            writer.emit(ind, f"r{slot[1]} = r{slot[2]} & U32")
            idx += 1
            continue
        if kind == K_LD_IMM64:
            writer.emit(ind, f"r{slot[1]} = {slot[2]!r}")
            idx = slot[3]
            continue

        if kind in (K_JMP_K, K_JMP_X, K_JMP32_K, K_JMP32_X):
            is_reg = kind in (K_JMP_X, K_JMP32_X)
            is32 = kind in (K_JMP32_K, K_JMP32_X)
            target, backward = (slot[4], slot[5]) if is_reg \
                else (slot[5], slot[6])
            pre: List[str] = []
            expr = _cond_expr(slot, is_reg, is32, pre)
            writer.emit(ind, *pre)
            writer.emit(ind, f"if {expr}:")
            if not 0 <= target < n:
                writer.emit(ind + 1, f"pending += {k}")
                writer.emit(ind + 1, f"raise BpfRuntimeError("
                                     f"'pc out of range: {target}')")
            elif backward:
                writer.flush(ind + 1, k)
                writer.emit(ind + 1, f"b = {block_of[target]}",
                            "continue")
            else:
                writer.emit(ind + 1, f"pending += {k}",
                            f"b = {block_of[target]}", "continue")
            idx += 1
            continue

        if kind == K_JA:
            target, backward = slot[1], slot[2]
            if not 0 <= target < n:
                writer.emit(ind, f"pending += {k}")
                writer.emit(ind, f"raise BpfRuntimeError("
                                 f"'pc out of range: {target}')")
                return
            if backward:
                writer.flush(ind, k)
            else:
                writer.emit(ind, f"pending += {k}")
            writer.emit(ind, f"b = {block_of[target]}", "continue")
            return

        if kind == K_LDX:
            writer.flush(ind, k)
            k = 0
            writer.emit(ind, f"r{slot[1]} = int_from_bytes(mem_read("
                             f"(r{slot[2]} + {slot[3]}) & U64, "
                             f"{slot[4]}, source=tag), 'little')")
            idx += 1
            continue
        if kind == K_STX:
            writer.flush(ind, k)
            k = 0
            writer.emit(ind, f"mem_write((r{slot[1]} + {slot[3]}) & "
                             f"U64, (r{slot[2]} & {slot[5]!r})"
                             f".to_bytes({slot[4]}, 'little'), "
                             f"source=tag)")
            idx += 1
            continue
        if kind == K_ST:
            writer.flush(ind, k)
            k = 0
            writer.emit(ind, f"mem_write((r{slot[1]} + {slot[2]}) & "
                             f"U64, {slot[3]!r}, source=tag)")
            idx += 1
            continue
        if kind == K_ATOMIC:
            writer.flush(ind, k)
            k = 0
            src = slot[2]
            writer.emit(ind, f"_r = {_REG_LIST}")
            writer.emit(ind, f"atomic(_r, {slot[5]!r}, "
                             f"(r{slot[1]} + {slot[3]}) & U64, "
                             f"{slot[4]}, {src}, mem, tag)")
            writer.emit(ind, "r0 = _r[0]")
            if src != 0:
                writer.emit(ind, f"r{src} = _r[{src}]")
            idx += 1
            continue

        if kind == K_CALL_HELPER:
            writer.flush(ind, k)
            k = 0
            writer.emit(ind,
                        f"r0 = call_helper({slot[1]!r}, {_REG_LIST})")
            idx += 1
            continue
        if kind == K_CALL_SUB:
            writer.flush(ind, k)
            k = 0
            writer.emit(ind, f"r0 = run_frame({slot[1]}, "
                             f"(0, r1, r2, r3, r4, r5), None, "
                             f"depth + 1)")
            idx += 1
            continue
        if kind == K_EXIT:
            writer.flush(ind, k)
            writer.emit(ind, "if depth == 0:")
            writer.emit(ind + 1, f"vm.last_exit_regs = {_REG_LIST}")
            writer.emit(ind, "return r0")
            return
        # K_BAD and anything unexpected: raise where the interpreters
        # raise, with the instruction itself already counted
        message = slot[1] if kind == K_BAD \
            else f"undecodable slot at {idx}"
        writer.emit(ind, f"pending += {k}")
        writer.emit(ind, f"raise BpfRuntimeError({message!r})")
        return


def render_source(decoded: PredecodedProgram) -> Tuple[str,
                                                       Dict[int, int]]:
    """Generate the frame function source for a predecoded program.

    Returns ``(source, entry_blocks)``; exposed separately from
    :func:`compile_program` so tests and tooling can inspect the
    lowering without executing anything.
    """
    slots = decoded.slots
    leaders = _leaders(slots)
    block_of = {leader: block for block, leader in enumerate(leaders)}
    writer = _FrameWriter()
    writer.emit(0, "def _frame(vm, caller_regs, ctx_addr, depth, b):")
    writer.emit(1,
                "if depth > 8:",
                "    raise BpfRuntimeError("
                "'call depth exceeded at run time')",
                "kernel = vm.kernel",
                "mem = kernel.mem",
                "mem_read = mem.read",
                "mem_write = mem.write",
                "work = kernel.work",
                "tag = vm.prog_tag",
                "atomic = vm._atomic_rmw",
                "call_helper = vm._call_helper",
                "run_frame = vm._run_frame",
                "stack = mem.kmalloc(512, type_name='bpf_stack', "
                "owner=tag)",
                "r0 = r6 = r7 = r8 = r9 = 0",
                "if ctx_addr is None:",
                "    r1 = caller_regs[1] & U64",
                "    r2 = caller_regs[2] & U64",
                "    r3 = caller_regs[3] & U64",
                "    r4 = caller_regs[4] & U64",
                "    r5 = caller_regs[5] & U64",
                "else:",
                "    r1 = ctx_addr & U64",
                "    r2 = r3 = r4 = r5 = 0",
                "r10 = stack.base + 512",
                "pending = 0",
                "try:",
                "    while True:")
    for block, leader in enumerate(leaders):
        head = "if" if block == 0 else "elif"
        writer.emit(3, f"{head} b == {block}:")
        _emit_block(writer, slots, leader, block_of)
    writer.emit(3, "else:",
                "    raise BpfRuntimeError('no block %r' % (b,))")
    writer.emit(1,
                "finally:",
                "    if pending:",
                "        vm.insns_executed += pending",
                "        work(pending)",
                "    if not stack.freed:",
                "        mem.kfree(stack)")
    return "\n".join(writer.lines) + "\n", block_of


def compile_program(decoded: PredecodedProgram) -> CompiledProgram:
    """Lower a predecoded program to its compiled frame function."""
    source, entry_blocks = render_source(decoded)
    namespace = {
        "BpfRuntimeError": BpfRuntimeError,
        "U64": U64, "U32": U32,
        "_H64": _H64, "_F64": _F64, "_H32": _H32, "_F32": _F32,
        "int_from_bytes": int.from_bytes,
    }
    code = compile(source, "<bpf-compiled>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted load-time toolchain
    return CompiledProgram(namespace["_frame"], entry_blocks,
                           decoded.n_insns, source)
