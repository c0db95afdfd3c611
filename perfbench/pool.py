"""The ``load_churn`` program pool: distinct programs whose verifier
verdict and run results are known by construction.

The pool's layout -- which class and size sits at each popularity
rank -- is the same for every seed, so seeds differ in instruction
contents but not in how much work a request costs.  The workload's
design names the classes but no proportions; the counts below are
chosen as ``perfbench/README.md`` explains.  Classes:

* straight-line ALU programs of 16-1024 instructions -- accepted, and
  the value they return is computed while they are generated;
* chains of branch diamonds whose two arms leave the same state, so
  the verifier prunes the second arm at every join -- accepted;
* the five ``repro.net.programs`` XDP programs against the set-up
  maps -- accepted, with a verdict model per program;
* a read of an uninitialised register -- rejected;
* a stack store outside the 512-byte frame -- rejected;
* programs longer than the 4096-instruction cap -- rejected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Tuple

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R6, R7, R10
from repro.ebpf.progs import ProgType
from repro.net import programs as net_programs

U64 = (1 << 64) - 1

#: packet header of the repo's canonical format: dst_port, src_id
HEADER = struct.Struct("<HB")

#: ports the XDP runs send to (23 is the one the filters block)
PORTS = (23, 53, 80, 443)

#: source ids the XDP runs use; 3 is left out because the firewall
#: keeps a counter for it, which would make its verdict stateful
SOURCES = (0, 1, 2, 4, 5, 6, 7)


@dataclass
class PoolProgram:
    """One pool entry and its expected behaviour."""

    name: str
    kind: str
    prog_type: ProgType
    insns: list
    accepted: bool
    #: KPROBE: the value every run returns
    returns: Optional[int] = None
    #: XDP: verdict for a (dst_port, src_id) packet
    verdict: Optional[Callable[[int, int], int]] = None


_ALU = {
    "add": lambda a, b: (a + b) & U64,
    "sub": lambda a, b: (a - b) & U64,
    "xor": lambda a, b: a ^ b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: (a * b) & U64,
    "lsh": lambda a, b: (a << (b & 63)) & U64,
    "rsh": lambda a, b: a >> (b & 63),
}


def _straight_line(asm: Asm, length: int, rng: Random) -> int:
    """Append ALU work until ``asm`` holds ``length`` instructions;
    returns the value left in r0."""
    regs = {R0: rng.randrange(1 << 20), R6: rng.randrange(1 << 20),
            R7: rng.randrange(1 << 20)}
    for reg, value in regs.items():
        asm.mov64_imm(reg, value)
    while len(asm) < length:
        op = rng.choice(tuple(_ALU))
        dst = rng.choice(tuple(regs))
        # the verifier refuses a shift by a register that may be >= 64
        if rng.random() < 0.3 and op not in ("lsh", "rsh"):
            src = rng.choice(tuple(regs))
            asm.alu64_reg(op, dst, src)
            regs[dst] = _ALU[op](regs[dst], regs[src])
        else:
            imm = rng.randrange(64) if op in ("lsh", "rsh") \
                else rng.randrange(1, 1 << 20)
            asm.alu64_imm(op, dst, imm)
            regs[dst] = _ALU[op](regs[dst], imm)
    return regs[R0]


def straight_line_prog(name: str, size: float, rng: Random
                       ) -> PoolProgram:
    """16-1024 instructions (log-uniform in ``size``) of constant ALU
    work."""
    length = int(16 * 64 ** size)
    asm = Asm()
    value = _straight_line(asm, length - 1, rng)
    return PoolProgram(name, "straight", ProgType.KPROBE,
                       asm.exit_().program(), True, returns=value)


def diamond_chain_prog(name: str, size: float, rng: Random
                       ) -> PoolProgram:
    """1-16 diamonds on an unknown ctx value; both arms reload it and
    set the same constant, so the states meet again at every join."""
    diamonds = 1 + int(16 * size)
    total = rng.randrange(1 << 16)
    asm = Asm().ldx(8, R6, R1, 0).mov64_imm(R0, total)
    for index in range(diamonds):
        step = rng.randrange(1, 1 << 12)
        total += step
        asm.jmp_imm("jgt", R6, rng.randrange(1, 1 << 16), f"else{index}")
        asm.mov64_imm(R7, step).ldx(8, R6, R1, 8).ja(f"join{index}")
        asm.label(f"else{index}").mov64_imm(R7, step).ldx(8, R6, R1, 8)
        asm.label(f"join{index}").alu64_reg("add", R0, R7)
    return PoolProgram(name, "diamonds", ProgType.KPROBE,
                       asm.exit_().program(), True, returns=total)


def uninit_read_prog(name: str, size: float, rng: Random
                     ) -> PoolProgram:
    """ALU prefix, then r0 = one of r2-r5, never written."""
    asm = Asm()
    _straight_line(asm, 4 + int(60 * size), rng)
    asm.mov64_reg(R0, rng.choice((R2, R3, R4, R5)))
    return PoolProgram(name, "uninit_read", ProgType.KPROBE,
                       asm.exit_().program(), False)


def stack_escape_prog(name: str, size: float, rng: Random
                      ) -> PoolProgram:
    """ALU prefix, then a store below or above the 512-byte frame."""
    asm = Asm()
    _straight_line(asm, 4 + int(60 * size), rng)
    offset = rng.choice((-520 - 8 * rng.randrange(8), 8 * rng.randrange(4)))
    asm.st_imm(8, R10, offset, rng.randrange(1 << 16))
    asm.mov64_imm(R0, 0)
    return PoolProgram(name, "stack_escape", ProgType.KPROBE,
                       asm.exit_().program(), False)


def oversize_prog(name: str, size: float, rng: Random) -> PoolProgram:
    """4097-4160 instructions: over the verifier's length cap."""
    asm = Asm()
    _straight_line(asm, 4096 + int(64 * size), rng)
    return PoolProgram(name, "oversize", ProgType.KPROBE,
                       asm.exit_().program(), False)


def xdp_progs(stats_fd: int, devmap_fd: int) -> List[PoolProgram]:
    """The five canned XDP programs (the devmap stays empty, so every
    redirect falls back to a drop)."""
    blocked = net_programs.BLOCKED_PORT
    drop, passed, tx = (net_programs.XDP_DROP, net_programs.XDP_PASS,
                        net_programs.XDP_TX)

    def filtered(port: int, src: int) -> int:
        return drop if port == blocked else passed

    models = (
        ("pass_all", net_programs.pass_all_prog(), lambda p, s: passed),
        ("port_filter", net_programs.port_filter_prog(), filtered),
        ("firewall", net_programs.firewall_prog(stats_fd), filtered),
        ("redirect", net_programs.redirect_by_source_prog(devmap_fd),
         lambda p, s: drop),
        ("rewriter", net_programs.rewriter_prog(), lambda p, s: tx),
    )
    return [PoolProgram(f"xdp_{name}", "xdp", ProgType.XDP, insns, True,
                        verdict=model)
            for name, insns, model in models]


#: entries of the program load cache (``ProgramLoadCache``'s default)
CACHE_ENTRIES = 128

#: (maker, how many) per generated class: the two accepted classes in
#: equal numbers, each as many as the cache holds, and the three
#: rejected classes in equal numbers
_ACCEPTED = ((straight_line_prog, CACHE_ENTRIES),
             (diamond_chain_prog, CACHE_ENTRIES))
_REJECTED = ((uninit_read_prog, 16), (stack_escape_prog, 16),
             (oversize_prog, 16))

#: rejected programs only take ranks past the cache-sized head, so the
#: head a warm cache can hold is all loadable programs
_REJECTED_FROM_RANK = CACHE_ENTRIES

#: step of the low-discrepancy sequence that spreads sizes over ranks
_GOLDEN = 0.6180339887498949


def _merge(*groups: list) -> list:
    """Interleave lists evenly: item ``j`` of a list of ``n`` items
    sits at key ``(j + 0.5) / n``."""
    keyed = [((j + 0.5) / len(group), k, item)
             for k, group in enumerate(groups)
             for j, item in enumerate(group)]
    return [item for __, __, item in
            sorted(keyed, key=lambda entry: entry[:2])]


def layout() -> List[Tuple[Optional[Callable], int]]:
    """(maker, index) per popularity rank, most popular first; maker
    None stands for the ``index``-th canned XDP program.

    Accepted classes and the five XDP programs are interleaved evenly
    over the ranks, the rejected classes evenly over the ranks past
    :data:`_REJECTED_FROM_RANK`."""
    accepted = _merge(*[[(maker, index) for index in range(count)]
                        for maker, count in _ACCEPTED],
                      [(None, index) for index in range(5)])
    rejected = _merge(*[[(maker, index) for index in range(count)]
                        for maker, count in _REJECTED])
    return accepted[:_REJECTED_FROM_RANK] + _merge(
        accepted[_REJECTED_FROM_RANK:], rejected)


def accepted_by_rank() -> List[bool]:
    """Whether the verifier accepts the program at each rank."""
    rejecting = {maker for maker, __ in _REJECTED}
    return [maker not in rejecting for maker, __ in layout()]


def build_pool(seed: int, stats_fd: int, devmap_fd: int
               ) -> List[PoolProgram]:
    """The pool in popularity order (most popular first): the fixed
    :func:`layout`, with sizes following a low-discrepancy sequence
    over the ranks.  The seed fills in the instructions."""
    rng = Random(f"load_churn-pool:{seed}")
    xdp = xdp_progs(stats_fd, devmap_fd)
    return [xdp[index] if maker is None
            else maker(f"{maker.__name__}_{index}",
                       (rank * _GOLDEN) % 1.0, rng)
            for rank, (maker, index) in enumerate(layout())]


def packet(port: int, src: int) -> bytes:
    """A 32-byte packet in the canonical format."""
    return HEADER.pack(port, src) + bytes(29)
