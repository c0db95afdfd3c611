"""The simulated kernel address space.

Kernel memory is modeled as a set of typed allocations living at
simulated virtual addresses.  Every load and store goes through
:meth:`KernelAddressSpace.read` / :meth:`KernelAddressSpace.write`,
which detect exactly the fault classes of the paper's Table 1:

* NULL-pointer dereference (access inside the zero page),
* use-after-free (access to a freed allocation),
* out-of-bounds access (access past a live allocation's end),
* wild access (address mapped to no allocation at all).

A detected fault is reported through the fault hook (wired to the
kernel's oops path) and raised, so an unsafe helper genuinely *crashes
the simulated kernel* rather than raising a polite Python error.

Freed memory stays indexed only as long as it can still catch a bug,
so the index stays flat over runs of any length:

* the per-run eBPF stack (``bpf_stack``) goes on a LIFO free list and
  the next run's ``kmalloc`` of a stack hands the same range out again,
  zeroed, under a fresh :class:`Allocation` — between runs the frame is
  freed, so an access from outside any run is still a use-after-free;
* every other freed range waits in a FIFO quarantine of
  :data:`QUARANTINE_BYTES` (KASAN's design).  Once later frees push it
  out it leaves the index, and since addresses are never reused for
  other types, a late access to it faults as a wild access.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import (
    MemoryFault,
    NullDereference,
    OutOfBoundsAccess,
    UseAfterFree,
)

#: base of the simulated kernel direct map (mirrors x86-64)
KERNEL_BASE = 0xFFFF_8880_0000_0000

#: accesses below this address are NULL-page dereferences
NULL_PAGE_SIZE = 4096

#: allocation granularity
ALLOC_ALIGN = 16

#: type of the per-run eBPF stack frame, the one recycled type
STACK_TYPE = "bpf_stack"

#: address space the quarantine may hold, counted in slots (see
#: :func:`slot_bytes`): at most 8192 freed ranges, so evicting one
#: from the sorted index stays a short memmove
QUARANTINE_BYTES = 1 << 18


def slot_bytes(size: int) -> int:
    """Address space one allocation of ``size`` occupies: the size
    rounded up to :data:`ALLOC_ALIGN`, plus the red zone after it."""
    return ((size + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)) + ALLOC_ALIGN


@dataclass
class Allocation:
    """One live (or freed) kernel allocation."""

    alloc_id: int
    base: int
    size: int
    type_name: str
    owner: str
    data: bytearray = field(repr=False, default_factory=bytearray)
    freed: bool = False

    @property
    def end(self) -> int:
        """One past the last valid byte."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this allocation's range."""
        return self.base <= address < self.end


class KernelAddressSpace:
    """Allocator plus checked load/store for simulated kernel memory."""

    def __init__(self) -> None:
        self._next_base = KERNEL_BASE
        self._next_id = 1
        # every range that still resolves: live, free-listed stacks
        # and quarantined frees
        self._by_base: List[int] = []          # sorted bases
        self._allocations: Dict[int, Allocation] = {}  # base -> Allocation
        self._live_bytes = 0
        #: freed stack frames by size, reused last-in first-out
        self._free_frames: Dict[int, List[Allocation]] = {}
        #: other freed ranges, oldest first
        self._quarantine: Deque[Allocation] = deque()
        self._quarantined_bytes = 0
        #: called with the fault exception before it is raised; the
        #: kernel wires this to its oops path
        self.fault_hook: Optional[Callable[[MemoryFault], None]] = None
        #: optional access policy called on every valid access with
        #: (alloc, address, size, source, write); raising from it
        #: blocks the access — models protection-key checks (§4)
        self.access_policy: Optional[Callable] = None
        #: optional SMP observer called with (alloc, address, size,
        #: write) after a valid access resolves — the deterministic
        #: scheduler turns shared-storage accesses into yield points
        #: and feeds the race detector through it (one attribute test
        #: while no SMP run is active)
        self.smp_note: Optional[Callable] = None

    # -- allocation ---------------------------------------------------------

    def kmalloc(self, size: int, type_name: str = "void",
                owner: str = "kernel") -> Allocation:
        """Allocate ``size`` bytes of zeroed kernel memory.

        A stack frame reuses the range of the last freed frame of its
        size, if there is one; everything else gets a fresh range."""
        if size <= 0:
            raise ValueError(f"kmalloc size must be positive, got {size}")
        frames = (self._free_frames.get(size)
                  if type_name == STACK_TYPE else None)
        if frames:
            base = frames.pop().base
        else:
            base = self._next_base
            self._next_base += slot_bytes(size)
            self._by_base.append(base)  # fresh bases only grow
        alloc = Allocation(
            alloc_id=self._next_id,
            base=base,
            size=size,
            type_name=type_name,
            owner=owner,
            data=bytearray(size),
        )
        self._next_id += 1
        self._allocations[base] = alloc
        self._live_bytes += size
        return alloc

    def kfree(self, alloc: Allocation) -> None:
        """Free an allocation.  Double-free faults."""
        if alloc.freed:
            self._fault(UseAfterFree(
                f"double free of {alloc.type_name} at {alloc.base:#x}",
                address=alloc.base, source=alloc.owner))
        alloc.freed = True
        self._live_bytes -= alloc.size
        # The range stays indexed so later accesses report use-after-
        # free instead of a wild access: a stack until the next run
        # reuses it, anything else until the quarantine evicts it.
        if alloc.type_name == STACK_TYPE:
            self._free_frames.setdefault(alloc.size, []).append(alloc)
            return
        self._quarantine.append(alloc)
        self._quarantined_bytes += slot_bytes(alloc.size)
        while self._quarantined_bytes > QUARANTINE_BYTES:
            self._evict(self._quarantine.popleft())

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated and not freed."""
        return self._live_bytes

    def live_allocations(self, owner: Optional[str] = None) -> List[Allocation]:
        """All live allocations, optionally filtered by owner tag."""
        allocs = (a for a in self._allocations.values() if not a.freed)
        if owner is not None:
            allocs = (a for a in allocs if a.owner == owner)
        return sorted(allocs, key=lambda a: a.base)

    # -- checked access -----------------------------------------------------

    def read(self, address: int, size: int, *,
             source: str = "kernel") -> bytes:
        """Checked load of ``size`` bytes; faults on any invalid access."""
        if size == 0:
            return b""
        alloc = self._resolve(address, size, source)
        if self.access_policy is not None:
            self.access_policy(alloc, address, size, source, False)
        if self.smp_note is not None:
            self.smp_note(alloc, address, size, False)
        offset = address - alloc.base
        return bytes(alloc.data[offset:offset + size])

    def write(self, address: int, data: bytes, *,
              source: str = "kernel") -> None:
        """Checked store; faults on any invalid access."""
        if not data:
            return
        alloc = self._resolve(address, len(data), source)
        if self.access_policy is not None:
            self.access_policy(alloc, address, len(data), source, True)
        if self.smp_note is not None:
            self.smp_note(alloc, address, len(data), True)
        offset = address - alloc.base
        alloc.data[offset:offset + len(data)] = data

    def read_u64(self, address: int, *, source: str = "kernel") -> int:
        """Checked 8-byte little-endian load."""
        return int.from_bytes(self.read(address, 8, source=source), "little")

    def write_u64(self, address: int, value: int, *,
                  source: str = "kernel") -> None:
        """Checked 8-byte little-endian store."""
        self.write(address, (value & (2**64 - 1)).to_bytes(8, "little"),
                   source=source)

    # -- non-faulting access (exception-table style, like probe_read) --------

    def valid_range(self, address: int, size: int) -> bool:
        """True when [address, address+size) is fully inside one live
        allocation — the check ``copy_from_kernel_nofault`` relies on."""
        if size <= 0 or address < NULL_PAGE_SIZE:
            return False
        alloc = self.find_allocation(address)
        return (alloc is not None and not alloc.freed
                and address + size <= alloc.end)

    def try_read(self, address: int, size: int) -> Optional[bytes]:
        """Read without faulting; None when the range is invalid."""
        if not self.valid_range(address, size):
            return None
        alloc = self.find_allocation(address)
        assert alloc is not None
        offset = address - alloc.base
        return bytes(alloc.data[offset:offset + size])

    def try_write(self, address: int, data: bytes) -> bool:
        """Write without faulting; False when the range is invalid."""
        if not self.valid_range(address, len(data)):
            return False
        alloc = self.find_allocation(address)
        assert alloc is not None
        offset = address - alloc.base
        alloc.data[offset:offset + len(data)] = data
        return True

    def find_allocation(self, address: int) -> Optional[Allocation]:
        """The allocation whose range covers ``address``, if any
        (freed ones included until reused or evicted)."""
        idx = bisect.bisect_right(self._by_base, address) - 1
        if idx < 0:
            return None
        alloc = self._allocations[self._by_base[idx]]
        return alloc if alloc.contains(address) else None

    # -- internals ----------------------------------------------------------

    def _resolve(self, address: int, size: int, source: str) -> Allocation:
        """Map an access to its allocation or fault."""
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        if 0 <= address < NULL_PAGE_SIZE:
            self._fault(NullDereference(
                f"NULL pointer dereference at {address:#x}",
                address=address, source=source))
        # find_allocation inlined: this runs on every checked access
        by_base = self._by_base
        idx = bisect.bisect_right(by_base, address) - 1
        alloc = self._allocations[by_base[idx]] if idx >= 0 else None
        end = alloc.base + alloc.size if alloc is not None else address
        if address >= end:
            self._fault(MemoryFault(
                f"wild kernel access at unmapped address {address:#x}",
                address=address, source=source))
            raise AssertionError("unreachable")  # pragma: no cover
        if alloc.freed:
            self._fault(UseAfterFree(
                f"use-after-free of {alloc.type_name} at {address:#x}",
                address=address, source=source))
        if address + size > end:
            self._fault(OutOfBoundsAccess(
                f"out-of-bounds access of {alloc.type_name}: "
                f"[{address:#x}, +{size}) beyond {end:#x}",
                address=address, source=source))
        return alloc

    def _evict(self, alloc: Allocation) -> None:
        """Drop a quarantined range from the index for good."""
        self._quarantined_bytes -= slot_bytes(alloc.size)
        del self._allocations[alloc.base]
        del self._by_base[bisect.bisect_left(self._by_base, alloc.base)]

    def _fault(self, fault: MemoryFault) -> None:
        """Report a fault through the hook, then raise it."""
        if self.fault_hook is not None:
            self.fault_hook(fault)
        raise fault
