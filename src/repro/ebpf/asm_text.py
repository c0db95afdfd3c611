"""Text-format eBPF assembler.

Parses the same surface syntax the disassembler emits (bpftool-style),
so programs can be written as text, and ``disasm`` output round-trips::

    prog = assemble_text('''
        r0 = 0
        if r1 != 0 goto +2
        r0 = 2
        exit
        r0 = 1
        exit
    ''')

Supported forms:

* ``rD = IMM`` / ``rD = rS`` / ``rD OP= IMM`` / ``rD OP= rS``
  (64-bit ALU; OP in + - * / % & | ^ << >> s>>),
* ``rD = -rD`` (negation),
* ``rD = IMM ll`` (64-bit immediate), ``rD = map_fd[N]``,
* ``rD = *(u8|u16|u32|u64 *)(rS +OFF)`` and the store forms,
* ``if rD CMP (rS|IMM) goto (+N|-N|label)``, ``goto ...``,
* ``call helper#N`` / ``call N``, ``exit``,
* ``label:`` lines and ``; comments``.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.ebpf import isa
from repro.ebpf.asm import Asm
from repro.errors import InvalidProgram

_SIZES = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}

_ALU_SYMBOL_OPS = {
    "+=": "add", "-=": "sub", "*=": "mul", "/=": "div", "%=": "mod",
    "&=": "and", "|=": "or", "^=": "xor", "<<=": "lsh", ">>=": "rsh",
    "s>>=": "arsh",
}

_CMP_OPS = {
    "==": "jeq", "!=": "jne", ">": "jgt", ">=": "jge",
    "<": "jlt", "<=": "jle", "s>": "jsgt", "s>=": "jsge",
    "s<": "jslt", "s<=": "jsle", "&": "jset",
}

_REG = r"r(\d+)"
_IMM = r"(-?(?:0x[0-9a-fA-F]+|\d+))"
_TARGET = r"([+-]\d+|\w+)"

_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(rf"^lock \*\((u32|u64) \*\)\({_REG} ([+-]\d+)\)"
                rf" \+= {_REG}$"), "atomic_add"),
    (re.compile(rf"^if w(\d+) (s>=|s<=|s>|s<|==|!=|>=|<=|>|<|&) "
                rf"w(\d+) goto {_TARGET}$"), "jmp32_reg"),
    (re.compile(rf"^if w(\d+) (s>=|s<=|s>|s<|==|!=|>=|<=|>|<|&) "
                rf"{_IMM} goto {_TARGET}$"), "jmp32_imm"),
    (re.compile(rf"^{_REG} = \*\((u8|u16|u32|u64) \*\)"
                rf"\({_REG} ([+-]\d+)\)$"), "load"),
    (re.compile(rf"^\*\((u8|u16|u32|u64) \*\)\({_REG} ([+-]\d+)\)"
                rf" = {_REG}$"), "store_reg"),
    (re.compile(rf"^\*\((u8|u16|u32|u64) \*\)\({_REG} ([+-]\d+)\)"
                rf" = {_IMM}$"), "store_imm"),
    (re.compile(rf"^{_REG} = {_IMM} ll$"), "ld64"),
    (re.compile(rf"^{_REG} = map_fd\[(\d+)\]$"), "ld_map"),
    (re.compile(rf"^{_REG} = -r(\d+)$"), "neg"),
    (re.compile(rf"^{_REG} = {_REG}$"), "mov_reg"),
    (re.compile(rf"^{_REG} = {_IMM}$"), "mov_imm"),
    (re.compile(rf"^{_REG} (s>>=|<<=|>>=|[-+*/%&|^]=) {_REG}$"),
     "alu_reg"),
    (re.compile(rf"^{_REG} (s>>=|<<=|>>=|[-+*/%&|^]=) {_IMM}$"),
     "alu_imm"),
    (re.compile(rf"^if {_REG} (s>=|s<=|s>|s<|==|!=|>=|<=|>|<|&) "
                rf"{_REG} goto {_TARGET}$"), "jmp_reg"),
    (re.compile(rf"^if {_REG} (s>=|s<=|s>|s<|==|!=|>=|<=|>|<|&) "
                rf"{_IMM} goto {_TARGET}$"), "jmp_imm"),
    (re.compile(rf"^goto {_TARGET}$"), "ja"),
    (re.compile(r"^call helper#(\d+)$"), "call"),
    (re.compile(r"^call (\d+)$"), "call"),
    (re.compile(r"^exit$"), "exit"),
]

_LABEL = re.compile(r"^(\w+):$")


def _to_int(text: str) -> int:
    return int(text, 0)


def _target(asm_target: str):
    """A '+N'/'-N' relative offset or a label name."""
    if asm_target[0] in "+-":
        return int(asm_target)
    return asm_target


def assemble_text(source: str) -> List[isa.Insn]:
    """Assemble a text program into instructions."""
    asm = Asm()
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";")[0].strip()
        # normalize instruction-index prefixes from disasm output
        line = re.sub(r"^\d+:\s*", "", line)
        if not line:
            continue
        label_match = _LABEL.match(line)
        if label_match:
            asm.label(label_match.group(1))
            continue
        for pattern, kind in _PATTERNS:
            match = pattern.match(line)
            if match is None:
                continue
            groups = match.groups()
            if kind == "atomic_add":
                size, dst, off, src = groups
                asm.atomic_add(_SIZES[size], int(dst), int(off),
                               int(src))
            elif kind == "jmp32_reg":
                dst, op, src, target = groups
                asm.jmp32_reg(_CMP_OPS[op], int(dst), int(src),
                              _target(target))
            elif kind == "jmp32_imm":
                dst, op, imm, target = groups
                asm.jmp32_imm(_CMP_OPS[op], int(dst), _to_int(imm),
                              _target(target))
            elif kind == "load":
                dst, size, src, off = groups
                asm.ldx(_SIZES[size], int(dst), int(src), int(off))
            elif kind == "store_reg":
                size, dst, off, src = groups
                asm.stx(_SIZES[size], int(dst), int(off), int(src))
            elif kind == "store_imm":
                size, dst, off, imm = groups
                asm.st_imm(_SIZES[size], int(dst), int(off),
                           _to_int(imm))
            elif kind == "ld64":
                dst, imm = groups
                asm.ld_imm64(int(dst), _to_int(imm))
            elif kind == "ld_map":
                dst, fd = groups
                asm.ld_map_fd(int(dst), int(fd))
            elif kind == "neg":
                dst, src = groups
                if dst != src:
                    raise InvalidProgram(
                        f"line {line_no}: negation must be in-place")
                asm.neg64(int(dst))
            elif kind == "mov_reg":
                dst, src = groups
                asm.mov64_reg(int(dst), int(src))
            elif kind == "mov_imm":
                dst, imm = groups
                asm.mov64_imm(int(dst), _to_int(imm))
            elif kind == "alu_reg":
                dst, op, src = groups
                asm.alu64_reg(_ALU_SYMBOL_OPS[op], int(dst), int(src))
            elif kind == "alu_imm":
                dst, op, imm = groups
                asm.alu64_imm(_ALU_SYMBOL_OPS[op], int(dst),
                              _to_int(imm))
            elif kind == "jmp_reg":
                dst, op, src, target = groups
                asm.jmp_reg(_CMP_OPS[op], int(dst), int(src),
                            _target(target))
            elif kind == "jmp_imm":
                dst, op, imm, target = groups
                asm.jmp_imm(_CMP_OPS[op], int(dst), _to_int(imm),
                            _target(target))
            elif kind == "ja":
                asm.ja(_target(groups[0]))
            elif kind == "call":
                asm.call(int(groups[0]))
            elif kind == "exit":
                asm.exit_()
            break
        else:
            raise InvalidProgram(
                f"line {line_no}: cannot parse {line!r}")
    return asm.program()
