"""Refcounted kernel objects and leak accounting.

Two bugs in the paper's Table 1 are reference-count leaks in helpers
(``bpf_get_task_stack`` and the ``sk_lookup`` family, [34, 35]); the
proposed framework prevents them with RAII wrappers (§3.2).  To make
both sides executable, the simulation gives kernel objects a real
refcount and a registry that can answer "which references did this
extension leak?" after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ResourceLeak, UseAfterFree


class RefcountedObject:
    """A kernel object with an explicit reference count.

    Mirrors ``refcount_t`` semantics: the object is created with one
    reference held by the kernel; extension code takes extra references
    via :meth:`get` and must drop them with :meth:`put`.  When the count
    reaches zero the object is released and further gets fault.
    """

    def __init__(self, name: str, type_name: str,
                 registry: "RefcountRegistry") -> None:
        self.name = name
        self.type_name = type_name
        self._registry = registry
        self._count = 1
        self._released = False

    @property
    def refcount(self) -> int:
        """Current reference count."""
        return self._count

    @property
    def released(self) -> bool:
        """True once the count dropped to zero."""
        return self._released

    def get(self, holder: str) -> None:
        """Take a reference on behalf of ``holder``."""
        if self._released:
            raise UseAfterFree(
                f"refcount get on released {self.type_name} {self.name}",
                source=holder)
        self._count += 1
        self._registry.note_get(self, holder)

    def put(self, holder: str) -> None:
        """Drop a reference on behalf of ``holder``."""
        if self._released:
            raise UseAfterFree(
                f"refcount put on released {self.type_name} {self.name}",
                source=holder)
        if self._count <= 0:
            raise ResourceLeak(
                f"refcount underflow on {self.type_name} {self.name}",
                source=holder)
        self._count -= 1
        self._registry.note_put(self, holder)
        if self._count == 0:
            self._released = True


@dataclass
class RefLedgerEntry:
    """Outstanding references one holder has on one object."""

    obj: RefcountedObject
    holder: str
    outstanding: int


class RefcountRegistry:
    """Tracks who holds references, to detect leaks per holder.

    After an extension finishes (or is killed), the framework asks
    :meth:`outstanding_for` — a non-empty answer is a reference-count
    leak of exactly the kind Table 1 reports.
    """

    def __init__(self) -> None:
        # (id(obj), holder) -> RefLedgerEntry
        self._ledger: Dict[tuple, RefLedgerEntry] = {}

    def create(self, name: str, type_name: str) -> RefcountedObject:
        """Create a new refcounted object (count 1, held by the kernel)."""
        return RefcountedObject(name, type_name, self)

    def note_get(self, obj: RefcountedObject, holder: str) -> None:
        """Record that ``holder`` took a reference."""
        key = (id(obj), holder)
        entry = self._ledger.get(key)
        if entry is None:
            entry = RefLedgerEntry(obj=obj, holder=holder, outstanding=0)
            self._ledger[key] = entry
        entry.outstanding += 1

    def note_put(self, obj: RefcountedObject, holder: str) -> None:
        """Record that ``holder`` dropped a reference."""
        key = (id(obj), holder)
        entry = self._ledger.get(key)
        if entry is not None:
            entry.outstanding -= 1

    def outstanding_for(self, holder: str) -> List[RefLedgerEntry]:
        """Outstanding (leaked) references held by ``holder``."""
        return [e for e in self._ledger.values()
                if e.holder == holder and e.outstanding > 0]

    def outstanding_holders(self) -> List[str]:
        """Every holder with outstanding references, sorted — leak
        checks enumerate these without knowing holder names upfront."""
        return sorted({e.holder for e in self._ledger.values()
                       if e.outstanding > 0})

    def reclaim(self, holder: str) -> int:
        """Drop every outstanding reference ``holder`` still has — the
        recovery supervisor's unwind step for refcount leaks.  Safe on
        already-released objects (the ledger is zeroed either way);
        returns how many references were dropped."""
        dropped = 0
        for entry in self.outstanding_for(holder):
            while entry.outstanding > 0:
                if entry.obj.released or entry.obj.refcount <= 0:
                    # object already gone: the ledger is stale, zero it
                    entry.outstanding = 0
                    break
                entry.obj.put(holder)
                dropped += 1
        return dropped

    def assert_no_leaks(self, holder: str) -> None:
        """Raise :class:`ResourceLeak` if ``holder`` leaked references."""
        leaks = self.outstanding_for(holder)
        if leaks:
            detail = ", ".join(
                f"{e.outstanding}x {e.obj.type_name}:{e.obj.name}"
                for e in leaks)
            raise ResourceLeak(
                f"{holder} leaked references: {detail}", source=holder)
