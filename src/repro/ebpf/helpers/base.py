"""Helper specifications: the verifier-visible contract.

A :class:`FuncProto` is what the verifier knows about a helper — the
analogue of ``struct bpf_func_proto``.  Crucially (and this is the
§2.2 escape hatch) the proto describes argument types only *shallowly*:
``ARG_PTR_TO_MEM`` says "readable memory of the paired size", nothing
about what the helper does with pointer fields *inside* that memory.
``bpf_sys_bpf``'s attr union is exactly such a blind spot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


class ArgType(enum.Enum):
    """Verifier-checked argument types (subset of ``bpf_arg_type``)."""

    #: any initialized value, contents unchecked
    ANYTHING = "anything"
    #: a map reference loaded via BPF_PSEUDO_MAP_FD
    CONST_MAP_PTR = "const_map_ptr"
    #: stack pointer with key_size readable bytes
    PTR_TO_MAP_KEY = "map_key"
    #: stack pointer with value_size readable bytes
    PTR_TO_MAP_VALUE = "map_value"
    #: readable memory; paired with a following CONST_SIZE argument
    PTR_TO_MEM = "mem"
    #: writable (possibly uninitialized) memory; paired with CONST_SIZE
    PTR_TO_UNINIT_MEM = "uninit_mem"
    #: a size for the preceding mem argument; must have provable bounds
    CONST_SIZE = "const_size"
    #: like CONST_SIZE but 0 is allowed
    CONST_SIZE_OR_ZERO = "const_size_or_zero"
    #: the program's context pointer
    PTR_TO_CTX = "ctx"
    #: a referenced socket (from an acquiring helper)
    PTR_TO_SOCKET = "socket"
    #: a callback function (BPF_PSEUDO_FUNC ld_imm64)
    PTR_TO_FUNC = "func"
    #: stack pointer or NULL (callback context)
    PTR_TO_STACK_OR_NULL = "stack_or_null"
    #: map value containing a struct bpf_spin_lock
    PTR_TO_SPIN_LOCK = "spin_lock"
    #: stack pointer to an 8-byte result slot
    PTR_TO_LONG = "long"
    #: referenced memory from an allocating helper (ringbuf reserve)
    PTR_TO_ALLOC_MEM = "alloc_mem"


class RetType(enum.Enum):
    """Verifier-tracked helper return types."""

    INTEGER = "integer"
    VOID = "void"
    MAP_VALUE_OR_NULL = "map_value_or_null"
    SOCKET_OR_NULL = "socket_or_null"
    MEM_OR_NULL = "mem_or_null"
    #: a raw kernel address typed as scalar — the leak-prone old ABI
    #: of bpf_get_current_task
    KERNEL_ADDR_SCALAR = "kernel_addr_scalar"


@dataclass
class FuncProto:
    """What the verifier believes about a helper."""

    args: List[ArgType] = field(default_factory=list)
    ret: RetType = RetType.INTEGER
    #: reference kind acquired by a successful call (e.g. "socket")
    acquires: Optional[str] = None
    #: True when arg1 releases a previously acquired reference
    releases: bool = False
    #: bytes returned in a MEM_OR_NULL pointer, when fixed
    ret_mem_size: int = 0
    #: True if the helper may only run with no spin lock held
    forbidden_under_spinlock: bool = True


class HelperCallContext:
    """Everything a helper implementation can touch at run time."""

    def __init__(self, kernel: "Kernel", vm: "object",
                 args: Sequence[int], prog: "object") -> None:
        #: the simulated kernel
        self.kernel = kernel
        #: the executing VM (for bpf_loop callbacks / tail calls)
        self.vm = vm
        #: concrete r1..r5 values
        self.args = list(args)
        #: the running LoadedProgram
        self.prog = prog

    def map_by_fd(self, map_fd: int) -> "object":
        """Resolve a map argument."""
        return self.vm.subsystem.map_by_fd(map_fd)


@dataclass(frozen=True)
class HelperSpec:
    """One helper function: contract, implementation, provenance.

    ``callgraph_size`` is the number of kernel functions the helper
    transitively calls (the Figure 3 metric) — taken from the paper
    where documented (0 for ``bpf_get_current_pid_tgid``, 4845 for
    ``bpf_sys_bpf``), synthesized to match the reported distribution
    otherwise.  ``classification`` is the §3.2 category: ``retire``
    (pure expressiveness, replaced by language features), ``simplify``
    (kernel interface whose error-prone parts move into safe code),
    ``wrap`` (unsafe code behind a sanitizing safe interface), or
    ``keep`` (already-minimal accessor).  Frozen: every kernel built
    without its own registry shares the same specs.
    """

    helper_id: int
    name: str
    proto: FuncProto
    impl: Optional[Callable[[HelperCallContext], int]] = None
    introduced: str = "v3.18"
    callgraph_size: int = 1
    classification: str = "keep"
    #: paper/Table-1 bug tags reproduced in the implementation
    bug_tags: List[str] = field(default_factory=list)
    notes: str = ""

    @property
    def is_implemented(self) -> bool:
        """True when the helper has an executable model."""
        return self.impl is not None
