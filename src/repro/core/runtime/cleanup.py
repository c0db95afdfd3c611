"""Safe termination: the trusted cleanup list.

§3.1 rejects ABI-based stack unwinding for kernel extensions (cleanup
must not fail, unwinding wants dynamic allocation, user ``Drop`` code
is untrusted) and proposes instead: "record allocated kernel resources
and their destructors on-the-fly during program execution.  When
termination is needed, the destructors of allocated resources are
invoked" — all of which are implemented by the kernel crate, so "all
the cleanup code is trusted and guaranteed not to fail".

The record itself lives in the pre-allocated memory pool, never the
allocator, because termination may happen in interrupt context [17].
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.kcrate.resources import KernelResource
from repro.core.runtime.mempool import MemoryPool


class CleanupList:
    """Resources acquired by the running extension, release order
    LIFO."""

    def __init__(self, pool: Optional[MemoryPool] = None,
                 capacity: int = 128) -> None:
        self._entries: List[KernelResource] = []
        self.capacity = capacity
        self._pool = pool
        # model the §3.1 no-dynamic-allocation constraint: the record
        # storage is carved from the pool up front
        self._pool_block = pool.alloc(capacity * 16) if pool else None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def live_count(self) -> int:
        """Resources registered and not yet released."""
        return sum(1 for r in self._entries if not r.released)

    def register(self, resource: KernelResource) -> None:
        """Record a newly acquired resource and its destructor."""
        if len(self._entries) >= self.capacity:
            # slots of already-released resources are reusable
            self._entries = [r for r in self._entries
                             if not r.released]
        if len(self._entries) >= self.capacity:
            # releasing everything and refusing is the fail-safe
            self.terminate()
            raise MemoryError(
                "cleanup list capacity exceeded; extension terminated")
        self._entries.append(resource)

    def terminate(self) -> int:
        """Abnormal termination (watchdog, panic): run every pending
        trusted destructor, newest first.  Returns how many ran."""
        ran = 0
        for resource in reversed(self._entries):
            if not resource.released:
                resource.release()
                ran += 1
        self._entries.clear()
        return ran

    def teardown(self) -> int:
        """End-of-invocation teardown: run any pending destructors and
        give the record storage back to the pool.

        The record block is carved at construction; without this it
        outlives the invocation and the pool leaks ``capacity * 16``
        bytes per run.  Idempotent.  Returns how many destructors ran.
        """
        ran = self.terminate()
        if self._pool is not None and self._pool_block is not None:
            self._pool.free(self._pool_block)
        self.assert_torn_down()
        return ran

    @property
    def torn_down(self) -> bool:
        """True once the record storage went back to the pool."""
        return self._pool_block is None or self._pool_block.freed

    def assert_torn_down(self) -> None:
        """Leak check: the record block must be back in the pool and
        every destructor must have run."""
        if not self.torn_down:
            raise AssertionError(
                "cleanup record block leaked: "
                f"{self._pool_block.size} bytes still carved from "
                "the pool after teardown")
        self.assert_clean()

    def assert_clean(self) -> None:
        """Post-run invariant: nothing left unreleased."""
        leaked = [r for r in self._entries if not r.released]
        if leaked:
            raise AssertionError(f"unreleased resources: {leaked}")
