"""Memory-protection-key domains (§4: protection *from* unsafe code).

The paper's open question: language safety protects the kernel from
the extension, but nothing protects the *extension* from "an errant
write from unsafe code into code or data belonging to the safe
extension" — the majority of the kernel is unsafe C.  It points at
lightweight hardware protection (Intel PKU/PKS, [27, 30, 33]) as the
promising mechanism.

This module models that mechanism.  Allocations are tagged with a
protection key; every *writer* executes in a domain whose PKRU-like
mask says which keys it may write.  The kcrate tags the extension's
private memory (pool, records) with the extension key; unsafe kernel
code runs in a domain without write rights to that key, so a stray
helper write into extension memory faults — *containment* — instead of
silently corrupting the safe world.

The check rides the simulated kernel's access-policy hook, so it
covers every write in the system, exactly like a hardware key check
on every TLB-tagged access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtectionKeyFault
from repro.kernel.memory import Allocation, KernelAddressSpace

#: the default key: memory writable by everyone (kernel behaviour
#: without MPK)
PKEY_DEFAULT = 0
#: key protecting safe-extension private memory
PKEY_EXTENSION = 1
#: key protecting the trusted kcrate's own records
PKEY_KCRATE = 2


@dataclass
class Domain:
    """One execution domain and its write rights."""

    name: str
    #: source-tag prefixes that execute in this domain
    source_prefixes: Tuple[str, ...]
    #: pkeys this domain may write
    writable_pkeys: frozenset


class MemoryProtectionKeys:
    """Per-kernel pkey state: tags, domains, and the access policy."""

    def __init__(self, mem: KernelAddressSpace) -> None:
        self.mem = mem
        self._tags: Dict[int, int] = {}       # alloc_id -> pkey
        self.enabled = True
        self.faults: List[ProtectionKeyFault] = []
        self._domains: List[Domain] = [
            Domain("safe-extension",
                   ("safelang:", "kcrate", "pool:"),
                   frozenset({PKEY_DEFAULT, PKEY_EXTENSION,
                              PKEY_KCRATE})),
        ]
        #: everything not matching a domain prefix is unsafe kernel
        self._unsafe_domain = Domain(
            "unsafe-kernel", (), frozenset({PKEY_DEFAULT}))
        mem.access_policy = self._check_write

    # -- tagging -------------------------------------------------------------

    def tag(self, alloc: Allocation, pkey: int) -> None:
        """Assign a protection key to an allocation."""
        self._tags[alloc.alloc_id] = pkey

    def pkey_of(self, alloc: Optional[Allocation]) -> int:
        """The key guarding an allocation (default when untagged)."""
        if alloc is None:
            return PKEY_DEFAULT
        return self._tags.get(alloc.alloc_id, PKEY_DEFAULT)

    def tagged_count(self, pkey: int) -> int:
        """How many allocations carry ``pkey``."""
        return sum(1 for value in self._tags.values() if value == pkey)

    # -- domains --------------------------------------------------------------

    def domain_for(self, source: str) -> Domain:
        """Which domain a source tag executes in."""
        for domain in self._domains:
            if any(source.startswith(prefix)
                   for prefix in domain.source_prefixes):
                return domain
        return self._unsafe_domain

    # -- the policy hook ----------------------------------------------------------

    def _check_write(self, alloc: Allocation, address: int, size: int,
                     source: str, write: bool) -> None:
        if not self.enabled or not write:
            return
        pkey = self.pkey_of(alloc)
        if pkey == PKEY_DEFAULT:
            return
        domain = self.domain_for(source)
        if pkey in domain.writable_pkeys:
            return
        fault = ProtectionKeyFault(
            f"pkey {pkey} write fault: {source} ({domain.name}) wrote "
            f"{size} bytes at {address:#x} into protected "
            f"{alloc.type_name}",
            address=address, pkey=pkey, source=source)
        self.faults.append(fault)
        raise fault


def protect_extension_memory(mpk: MemoryProtectionKeys,
                             pool_region: Allocation) -> None:
    """Tag the extension's private regions with the extension key."""
    mpk.tag(pool_region, PKEY_EXTENSION)
