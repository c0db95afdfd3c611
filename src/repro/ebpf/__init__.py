"""The modeled eBPF subsystem — the framework the paper critiques.

Faithful-in-structure model of Linux eBPF:

* :mod:`repro.ebpf.isa` — the bytecode instruction set,
* :mod:`repro.ebpf.asm` — a program-builder assembler,
* :mod:`repro.ebpf.disasm` — a disassembler,
* :mod:`repro.ebpf.maps` — array / hash / ringbuf / task-storage maps,
* :mod:`repro.ebpf.helpers` — the helper-function registry, including
  the buggy helpers of the paper's Table 1,
* :mod:`repro.ebpf.verifier` — the in-kernel verifier: symbolic
  execution with tnums, range tracking, pointer types, reference and
  lock discipline, state pruning and complexity limits,
* :mod:`repro.ebpf.interpreter` — the bytecode VM,
* :mod:`repro.ebpf.jit` — the JIT lowering pass (with an injectable
  miscompilation bug),
* :mod:`repro.ebpf.loader` — the load path tying it all together.
"""

from repro.ebpf.isa import Insn
from repro.ebpf.asm import Asm
from repro.ebpf.loader import BpfSubsystem, LoadedProgram
from repro.ebpf.progs import ProgType

__all__ = ["Insn", "Asm", "BpfSubsystem", "LoadedProgram", "ProgType"]
