"""The eBPF instruction set.

Mirrors the Linux uapi encoding: 8-byte instructions with an 8-bit
opcode (3-bit class + size/operation bits), two 4-bit registers, a
16-bit signed offset and a 32-bit signed immediate.  64-bit immediate
loads (``LD_IMM64``) occupy two instruction slots, with the second
slot's ``imm`` holding the upper 32 bits — just like the real ISA, and
important for the verifier/JIT interplay (a branch into the second
slot of an ``LD_IMM64`` is the classic control-flow-hijack gadget).
"""

from __future__ import annotations

from dataclasses import dataclass

# -- instruction classes ------------------------------------------------------
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_JMP32 = 0x06
BPF_ALU64 = 0x07

CLASS_MASK = 0x07

# -- size modifiers (LD/ST) ---------------------------------------------------
BPF_W = 0x00   # 4 bytes
BPF_H = 0x08   # 2 bytes
BPF_B = 0x10   # 1 byte
BPF_DW = 0x18  # 8 bytes

SIZE_MASK = 0x18
SIZE_BYTES = {BPF_W: 4, BPF_H: 2, BPF_B: 1, BPF_DW: 8}

# -- mode modifiers (LD/ST) ---------------------------------------------------
BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_ATOMIC = 0xC0

MODE_MASK = 0xE0

# -- source operand -----------------------------------------------------------
BPF_K = 0x00   # use imm
BPF_X = 0x08   # use src_reg

SRC_MASK = 0x08

# -- ALU operations -----------------------------------------------------------
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0
BPF_MOV = 0xB0
BPF_ARSH = 0xC0
BPF_END = 0xD0

ALU_OP_MASK = 0xF0

ALU_OP_NAMES = {
    BPF_ADD: "add", BPF_SUB: "sub", BPF_MUL: "mul", BPF_DIV: "div",
    BPF_OR: "or", BPF_AND: "and", BPF_LSH: "lsh", BPF_RSH: "rsh",
    BPF_NEG: "neg", BPF_MOD: "mod", BPF_XOR: "xor", BPF_MOV: "mov",
    BPF_ARSH: "arsh", BPF_END: "end",
}

# -- atomic sub-operations (imm of a BPF_STX|BPF_ATOMIC insn) -----------------
#: modifier: also load the pre-op value back into the source register
BPF_FETCH = 0x01
#: atomic exchange (always fetches)
BPF_XCHG = 0xE0 | BPF_FETCH
#: atomic compare-and-exchange (R0 is the comparand and receives the
#: old value)
BPF_CMPXCHG = 0xF0 | BPF_FETCH

ATOMIC_OP_NAMES = {
    BPF_ADD: "add", BPF_OR: "or", BPF_AND: "and", BPF_XOR: "xor",
    BPF_XCHG: "xchg", BPF_CMPXCHG: "cmpxchg",
}

# -- JMP operations -----------------------------------------------------------
BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40
BPF_JNE = 0x50
BPF_JSGT = 0x60
BPF_JSGE = 0x70
BPF_CALL = 0x80
BPF_EXIT = 0x90
BPF_JLT = 0xA0
BPF_JLE = 0xB0
BPF_JSLT = 0xC0
BPF_JSLE = 0xD0

JMP_OP_MASK = 0xF0

JMP_OP_NAMES = {
    BPF_JA: "ja", BPF_JEQ: "jeq", BPF_JGT: "jgt", BPF_JGE: "jge",
    BPF_JSET: "jset", BPF_JNE: "jne", BPF_JSGT: "jsgt", BPF_JSGE: "jsge",
    BPF_CALL: "call", BPF_EXIT: "exit", BPF_JLT: "jlt", BPF_JLE: "jle",
    BPF_JSLT: "jslt", BPF_JSLE: "jsle",
}

# -- registers ----------------------------------------------------------------
R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10 = range(11)
MAX_BPF_REG = 11
FP = R10  # read-only frame pointer

#: caller-saved argument registers for helper calls
ARG_REGS = (R1, R2, R3, R4, R5)
#: callee-saved registers
CALLEE_SAVED = (R6, R7, R8, R9)

#: pseudo src_reg marker: imm of LD_IMM64 is a map fd
BPF_PSEUDO_MAP_FD = 1
#: pseudo src_reg marker on BPF_CALL: imm is a relative subprog offset
BPF_PSEUDO_CALL = 1
#: pseudo src_reg marker: imm of LD_IMM64 is a relative subprog offset
BPF_PSEUDO_FUNC = 4

#: per-program stack size (bytes)
MAX_BPF_STACK = 512

U64_MAX = (1 << 64) - 1


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low ``bits`` of ``value`` as a signed integer."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def to_u64(value: int) -> int:
    """Truncate to unsigned 64-bit."""
    return value & U64_MAX


def to_s64(value: int) -> int:
    """Truncate to signed 64-bit."""
    return sign_extend(value, 64)


@dataclass(frozen=True)
class Insn:
    """One eBPF instruction."""

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0

    @property
    def insn_class(self) -> int:
        """The 3-bit instruction class."""
        return self.opcode & CLASS_MASK

    @property
    def is_jump(self) -> bool:
        """True for JMP/JMP32-class instructions."""
        return self.insn_class in (BPF_JMP, BPF_JMP32)

    @property
    def is_alu(self) -> bool:
        """True for ALU/ALU64-class instructions."""
        return self.insn_class in (BPF_ALU, BPF_ALU64)

    @property
    def is_ld_imm64(self) -> bool:
        """True for the first slot of a two-slot 64-bit immediate load."""
        return self.opcode == (BPF_LD | BPF_IMM | BPF_DW)

    def encode(self) -> bytes:
        """Encode to the 8-byte on-the-wire format."""
        if not 0 <= self.dst < 16 or not 0 <= self.src < 16:
            raise ValueError(f"register out of range in {self}")
        return (bytes([self.opcode & 0xFF, (self.src << 4) | self.dst])
                + (self.off & 0xFFFF).to_bytes(2, "little")
                + (self.imm & 0xFFFFFFFF).to_bytes(4, "little"))

    @classmethod
    def decode(cls, raw: bytes) -> "Insn":
        """Decode one instruction from 8 bytes."""
        if len(raw) != 8:
            raise ValueError(f"instruction must be 8 bytes, got {len(raw)}")
        opcode = raw[0]
        dst = raw[1] & 0x0F
        src = raw[1] >> 4
        off = sign_extend(int.from_bytes(raw[2:4], "little"), 16)
        imm = sign_extend(int.from_bytes(raw[4:8], "little"), 32)
        return cls(opcode, dst, src, off, imm)
