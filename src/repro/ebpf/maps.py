"""eBPF maps: the data plane shared between extensions and userspace.

Maps are backed by real allocations in the simulated kernel address
space, so a map-value pointer returned by ``bpf_map_lookup_elem`` is a
genuine kernel address that bytecode can (mis)use — which is what makes
the array-map 32-bit-overflow bug [36] and the §2.2 attacks executable.

Error convention (uniform across map types): the runtime interface
never raises for runtime failures.  ``lookup_addr`` answers None on a
miss *or* any invalid key; ``update``/``delete`` answer 0 or a
negative errno (``-EINVAL`` malformed key/value, ``-E2BIG`` capacity,
``-ENOENT`` missing, ``-ENOMEM``/``-ENOSPC`` allocation).  Python
exceptions are reserved for construction-time geometry errors and
userspace setup APIs (``read_value``, ``set_prog``) where a bad
argument is a test bug, not a runtime condition.

Failpoints: ``map.lookup`` / ``map.update`` / ``map.delete`` fire at
operation entry; ``map.alloc`` fires where an operation would allocate
kernel memory (hash values, ringbuf records, task storage), so chaos
schedules can model allocator pressure separately from op failures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BpfRuntimeError, KernelOops
from repro.ebpf.bugs import BugConfig
from repro.kernel.kernel import Kernel
from repro.kernel.locks import SpinLock

BPF_MAP_TYPE_ARRAY = "array"
BPF_MAP_TYPE_PERCPU_ARRAY = "percpu_array"
BPF_MAP_TYPE_HASH = "hash"
BPF_MAP_TYPE_PERCPU_HASH = "percpu_hash"
BPF_MAP_TYPE_RINGBUF = "ringbuf"
BPF_MAP_TYPE_TASK_STORAGE = "task_storage"
BPF_MAP_TYPE_PROG_ARRAY = "prog_array"
BPF_MAP_TYPE_DEVMAP = "devmap"

# errno numbers (ops return the negative value, kernel-style)
ENOENT = 2
E2BIG = 7
ENOMEM = 12
EINVAL = 22
ENOSPC = 28


class BpfMap:
    """Base class for all map types."""

    map_type = "abstract"

    def __init__(self, kernel: Kernel, map_fd: int, key_size: int,
                 value_size: int, max_entries: int) -> None:
        if key_size < 0 or value_size <= 0 or max_entries <= 0:
            raise BpfRuntimeError(
                f"invalid map geometry: key={key_size} value={value_size} "
                f"entries={max_entries}")
        self.kernel = kernel
        self.map_fd = map_fd
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        #: optional embedded bpf_spin_lock (verifier tracks its use)
        self.spin_lock: Optional[SpinLock] = None

    def add_spin_lock(self) -> None:
        """Embed a ``bpf_spin_lock`` in the map values."""
        self.spin_lock = self.kernel.locks.create(
            f"map{self.map_fd}.lock")

    def destroy(self) -> None:
        """Release every backing kernel allocation (map teardown).

        The base implementation frees the common storage shapes
        (``storage``, ``per_cpu_storage``, ``_entries``); map types
        with extra state override and chain up.  Idempotent."""
        storage = getattr(self, "storage", None)
        if storage is not None and not storage.freed:
            self.kernel.mem.kfree(storage)
        for alloc in getattr(self, "per_cpu_storage", ()) or ():
            if not alloc.freed:
                self.kernel.mem.kfree(alloc)
        entries = getattr(self, "_entries", None)
        if isinstance(entries, dict):
            for alloc in entries.values():
                if not getattr(alloc, "freed", True):
                    self.kernel.mem.kfree(alloc)
            entries.clear()

    # interface used by helpers; addresses are kernel virtual addresses
    def lookup_addr(self, key: bytes) -> Optional[int]:
        """Address of the value for ``key``, or None."""
        raise NotImplementedError

    def update(self, key: bytes, value: bytes) -> int:
        """Insert/overwrite; returns 0 or negative errno."""
        raise NotImplementedError

    def delete(self, key: bytes) -> int:
        """Remove; returns 0 or negative errno."""
        raise NotImplementedError

    def _key_ok(self, key: bytes) -> bool:
        return len(key) == self.key_size

    def _smp_point(self, op: str) -> None:
        """Shared-map operations are cross-CPU interleaving points
        while a deterministic SMP run is active (one attribute test
        otherwise).  Crucially this fires *before* the operation
        resolves any per-CPU slot, so the executing CPU — which the
        schedule may just have changed via migration — is the one the
        access lands on."""
        smp = self.kernel.smp
        if smp is not None:
            kind = op if "." in op else f"map.{op}"
            smp.yield_point(kind, f"map{self.map_fd}")

    def _fault(self, site: str) -> Optional[int]:
        """Consult the fault plane at a map failpoint.

        Returns the negative errno to fail with, or None to proceed.
        An injected panic oopses here, through the official path —
        only errno and delay make sense as *returned* map errors."""
        faults = self.kernel.faults
        if not faults.armed:
            return None
        action = faults.check(site)
        if action is None or action.kind == "delay":
            return None
        if action.kind == "panic":
            self.kernel.log.record_oops(
                self.kernel.clock.now_ns,
                f"injected panic in map{self.map_fd} {site}",
                category="fault-injection", source="bpf-map")
            raise KernelOops(
                f"injected panic in map{self.map_fd} {site}",
                source="bpf-map")
        return -action.errno


class ArrayMap(BpfMap):
    """Preallocated array map with u32 keys.

    The element-offset computation honours the
    ``array_map_32bit_overflow`` bug [36]: with the bug present the
    offset is computed modulo 2**32, so a huge ``index * value_size``
    product wraps and the returned pointer can fall outside the array.
    """

    map_type = BPF_MAP_TYPE_ARRAY

    def __init__(self, kernel: Kernel, map_fd: int, key_size: int,
                 value_size: int, max_entries: int,
                 bugs: Optional[BugConfig] = None) -> None:
        super().__init__(kernel, map_fd, key_size, value_size, max_entries)
        if key_size != 4:
            raise BpfRuntimeError("array map requires 4-byte keys")
        self._bugs = bugs or BugConfig()
        self.storage = kernel.mem.kmalloc(
            value_size * max_entries,
            type_name=f"array_map{map_fd}", owner="bpf-map")

    def element_offset(self, index: int) -> int:
        """Byte offset of element ``index`` — the buggy computation."""
        offset = index * self.value_size
        if self._bugs.array_map_32bit_overflow:
            # the [36] bug: 32-bit multiply on a 64-bit quantity
            offset &= 0xFFFFFFFF
        return offset

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        self._smp_point("lookup")
        if not self._key_ok(key) or self._fault("map.lookup"):
            return None
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return None
        return self.storage.base + self.element_offset(index)

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        self._smp_point("update")
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.update")
        if errno:
            return errno
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return -E2BIG
        if len(value) != self.value_size:
            return -EINVAL
        self.kernel.mem.write(
            self.storage.base + index * self.value_size, value)
        return 0

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        return -EINVAL  # array elements cannot be deleted

    def read_value(self, index: int) -> bytes:
        """Userspace-style read of one element."""
        if not 0 <= index < self.max_entries:
            raise BpfRuntimeError(f"index {index} out of range")
        return self.kernel.mem.read(
            self.storage.base + index * self.value_size, self.value_size)


class PercpuArrayMap(BpfMap):
    """Per-CPU array: each CPU sees its own value slice, so updates
    need no synchronization — the idiom hot counters use."""

    map_type = BPF_MAP_TYPE_PERCPU_ARRAY

    def __init__(self, kernel: Kernel, map_fd: int, key_size: int,
                 value_size: int, max_entries: int) -> None:
        super().__init__(kernel, map_fd, key_size, value_size,
                         max_entries)
        if key_size != 4:
            raise BpfRuntimeError("percpu array requires 4-byte keys")
        self.per_cpu_storage = [
            kernel.mem.kmalloc(value_size * max_entries,
                               type_name=f"percpu_array{map_fd}",
                               owner=f"bpf-map:cpu{cpu.cpu_id}")
            for cpu in kernel.cpus
        ]

    def _slot_addr(self, index: int) -> int:
        """Slice of the *executing* CPU.  Only ever called after the
        operation's yield point fired, so the CPU consulted here is
        the one the schedule chose — a migration at the yield lands
        the access on the new CPU's slice, not the one current at
        program load or helper entry."""
        storage = self.per_cpu_storage[self.kernel.current_cpu.cpu_id]
        return storage.base + index * self.value_size

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        self._smp_point("lookup")
        if not self._key_ok(key) or self._fault("map.lookup"):
            return None
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return None
        return self._slot_addr(index)

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        self._smp_point("update")
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.update")
        if errno:
            return errno
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return -E2BIG
        if len(value) != self.value_size:
            return -EINVAL
        self.kernel.mem.write(self._slot_addr(index), value)
        return 0

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        return -EINVAL

    def read_values(self, index: int) -> List[bytes]:
        """Userspace view: this element's value on every CPU."""
        if not 0 <= index < self.max_entries:
            raise BpfRuntimeError(f"index {index} out of range")
        return [
            self.kernel.mem.read(storage.base + index * self.value_size,
                                 self.value_size)
            for storage in self.per_cpu_storage
        ]

    def sum_u64(self, index: int) -> int:
        """Userspace aggregation across CPUs (8-byte values)."""
        return sum(int.from_bytes(raw[:8], "little")
                   for raw in self.read_values(index))


class HashMap(BpfMap):
    """Hash map: dynamically allocated values."""

    map_type = BPF_MAP_TYPE_HASH

    def __init__(self, kernel: Kernel, map_fd: int, key_size: int,
                 value_size: int, max_entries: int) -> None:
        super().__init__(kernel, map_fd, key_size, value_size, max_entries)
        self._entries: Dict[bytes, "Allocation"] = {}

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        self._smp_point("lookup")
        if not self._key_ok(key) or self._fault("map.lookup"):
            return None
        alloc = self._entries.get(key)
        return alloc.base if alloc is not None else None

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        self._smp_point("update")
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.update")
        if errno:
            return errno
        if len(value) != self.value_size:
            return -EINVAL
        alloc = self._entries.get(key)
        if alloc is None:
            if len(self._entries) >= self.max_entries:
                return -E2BIG
            errno = self._fault("map.alloc")
            if errno:
                return errno
            alloc = self.kernel.mem.kmalloc(
                self.value_size, type_name=f"hash_map{self.map_fd}_val",
                owner="bpf-map")
            self._entries[key] = alloc
        self.kernel.mem.write(alloc.base, value)
        return 0

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        self._smp_point("delete")
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.delete")
        if errno:
            return errno
        alloc = self._entries.pop(key, None)
        if alloc is None:
            return -ENOENT
        self.kernel.mem.kfree(alloc)
        return 0

    def read_value(self, key: bytes) -> Optional[bytes]:
        """Userspace-style read."""
        alloc = self._entries.get(key) if self._key_ok(key) else None
        if alloc is None:
            return None
        return self.kernel.mem.read(alloc.base, self.value_size)

    def __len__(self) -> int:
        return len(self._entries)


class PercpuHashMap(BpfMap):
    """Per-CPU hash map (``BPF_MAP_TYPE_PERCPU_HASH``): every key owns
    one value slice *per CPU*, and a program only ever touches the
    slice of the CPU it is executing on — resolved at the operation's
    yield point, exactly like :class:`PercpuArrayMap`, so a migration
    scheduled at the yield lands the access on the new CPU's slice."""

    map_type = BPF_MAP_TYPE_PERCPU_HASH

    def __init__(self, kernel: Kernel, map_fd: int, key_size: int,
                 value_size: int, max_entries: int) -> None:
        super().__init__(kernel, map_fd, key_size, value_size, max_entries)
        #: key -> one Allocation per CPU (index = cpu_id)
        self._entries: Dict[bytes, List["Allocation"]] = {}

    def _slices_for(self, key: bytes, create: bool) \
            -> Optional[List["Allocation"]]:
        slices = self._entries.get(key)
        if slices is None and create:
            if len(self._entries) >= self.max_entries:
                return None
            if self._fault("map.alloc"):
                return None
            slices = [
                self.kernel.mem.kmalloc(
                    self.value_size,
                    type_name=f"percpu_hash{self.map_fd}_val",
                    owner=f"bpf-map:cpu{cpu.cpu_id}")
                for cpu in self.kernel.cpus
            ]
            self._entries[key] = slices
        return slices

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr` — the executing CPU's slice."""
        self._smp_point("lookup")
        if not self._key_ok(key) or self._fault("map.lookup"):
            return None
        slices = self._entries.get(key)
        if slices is None:
            return None
        return slices[self.kernel.current_cpu.cpu_id].base

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update` — writes the executing CPU's
        slice (other CPUs' slices are created zeroed on first insert,
        like the real map's percpu allocation)."""
        self._smp_point("update")
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.update")
        if errno:
            return errno
        if len(value) != self.value_size:
            return -EINVAL
        slices = self._slices_for(key, create=True)
        if slices is None:
            return -E2BIG if len(self._entries) >= self.max_entries \
                else -ENOMEM
        self.kernel.mem.write(
            slices[self.kernel.current_cpu.cpu_id].base, value)
        return 0

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete` — drops every CPU's slice."""
        self._smp_point("delete")
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.delete")
        if errno:
            return errno
        slices = self._entries.pop(key, None)
        if slices is None:
            return -ENOENT
        for alloc in slices:
            self.kernel.mem.kfree(alloc)
        return 0

    def read_values(self, key: bytes) -> Optional[List[bytes]]:
        """Userspace view: this key's value on every CPU."""
        slices = self._entries.get(key) if self._key_ok(key) else None
        if slices is None:
            return None
        return [self.kernel.mem.read(alloc.base, self.value_size)
                for alloc in slices]

    def sum_u64(self, key: bytes) -> int:
        """Userspace aggregation across CPUs (8-byte values)."""
        values = self.read_values(key)
        if values is None:
            return 0
        return sum(int.from_bytes(raw[:8], "little") for raw in values)

    def destroy(self) -> None:
        """See :meth:`BpfMap.destroy` — frees every CPU's slices."""
        for slices in self._entries.values():
            for alloc in slices:
                if not alloc.freed:
                    self.kernel.mem.kfree(alloc)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class RingBufMap(BpfMap):
    """Ring buffer for extension -> userspace streaming.

    Reservation lifecycle matches the kernel's: ``reserve`` hands out
    real kernel memory that stays live until the record is *consumed*
    — ``submit`` copies it into the record stream and frees the
    backing allocation, ``discard`` frees it and returns the space.
    ``-ENOSPC`` refusals are counted (``drops`` /``dropped_bytes``)
    and fed to the kernel's telemetry, and teardown releases any
    reservation an extension abandoned."""

    map_type = BPF_MAP_TYPE_RINGBUF

    def __init__(self, kernel: Kernel, map_fd: int,
                 max_entries: int) -> None:
        # ringbuf has no keys; value_size is a placeholder
        super().__init__(kernel, map_fd, 0, 8, max_entries)
        self.capacity_bytes = max_entries
        self._used = 0
        self._records: List[bytes] = []
        self._reserved: Dict[int, "Allocation"] = {}
        #: records refused with -ENOSPC since creation
        self.drops = 0
        #: bytes those refused records would have occupied
        self.dropped_bytes = 0

    def _note_drop(self, size: int) -> None:
        self.drops += 1
        self.dropped_bytes += size
        self.kernel.telemetry.record_ringbuf_drop(self.map_fd, size)

    def output(self, data: bytes) -> int:
        """Copy a record in; returns 0 or -ENOSPC (counted)."""
        self._smp_point("ringbuf.produce")
        errno = self._fault("map.alloc")
        if errno:
            self._note_drop(len(data))
            return -ENOSPC
        if self._used + len(data) > self.capacity_bytes:
            self._note_drop(len(data))
            return -ENOSPC
        self._records.append(data)
        self._used += len(data)
        return 0

    def output_batch(self, records: Sequence[bytes]) -> Tuple[int, int]:
        """Publish a burst of records; returns ``(accepted, refused)``.

        This is the data plane's per-poll flush: every per-CPU RX
        queue delivers its batch of PASS packets in one call.  The
        ENOSPC-exactness contract is the point of the method: *every*
        record of the batch is attempted, so a ring that fills (or a
        ``map.alloc`` fault that fires) mid-batch still counts each
        refused record individually in ``drops`` / ``dropped_bytes``
        and the kernel's telemetry — a caller that stopped at the
        first ``-ENOSPC`` would undercount drops by however much of
        the batch it never tried, and the drop counters would no
        longer reconcile against the producer's attempt counts.
        """
        accepted = 0
        refused = 0
        for record in records:
            if self.output(record) == 0:
                accepted += 1
            else:
                refused += 1
        return accepted, refused

    def reserve(self, size: int) -> Optional[int]:
        """Reserve a record, returning its kernel address (None on
        bad size or -ENOSPC, the latter counted as a drop)."""
        self._smp_point("ringbuf.produce")
        if size <= 0:
            return None
        if self._fault("map.alloc"):
            self._note_drop(size)
            return None
        if self._used + size > self.capacity_bytes:
            self._note_drop(size)
            return None
        alloc = self.kernel.mem.kmalloc(
            size, type_name=f"ringbuf{self.map_fd}_rec", owner="bpf-map")
        self._reserved[alloc.base] = alloc
        self._used += size
        return alloc.base

    def submit(self, addr: int) -> int:
        """Commit a reserved record: copy it into the stream and free
        the backing allocation."""
        alloc = self._reserved.pop(addr, None)
        if alloc is None:
            return -EINVAL
        self._records.append(
            self.kernel.mem.read(alloc.base, alloc.size))
        self.kernel.mem.kfree(alloc)
        return 0

    def discard(self, addr: int) -> int:
        """Abandon a reserved record: free the backing allocation and
        return its space to the ring."""
        alloc = self._reserved.pop(addr, None)
        if alloc is None:
            return -EINVAL
        self._used -= alloc.size
        self.kernel.mem.kfree(alloc)
        return 0

    def outstanding_reservations(self) -> int:
        """Reservations neither submitted nor discarded yet."""
        return len(self._reserved)

    def drain(self) -> List[bytes]:
        """Userspace consumes all records."""
        records, self._records = self._records, []
        self._used = sum(a.size for a in self._reserved.values())
        return records

    def destroy(self) -> None:
        """See :meth:`BpfMap.destroy` — also frees any outstanding
        reservations (the leak this method exists to prevent)."""
        for alloc in self._reserved.values():
            if not alloc.freed:
                self.kernel.mem.kfree(alloc)
        self._reserved.clear()
        self._records.clear()
        self._used = 0
        super().destroy()

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        return None

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        return -EINVAL

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        return -EINVAL


class PerfEventArrayMap(BpfMap):
    """Perf-event buffer for ``bpf_perf_event_output``.

    Unlike the single shared ring it used to inherit, this is an
    honest per-CPU structure: each CPU owns an independent record
    stream of ``max_entries`` bytes (the per-CPU mmap'd buffer of the
    real ``BPF_MAP_TYPE_PERF_EVENT_ARRAY``), records land on whichever
    CPU the program is running on, and a reader that falls behind
    loses records on *that* CPU only — counted per CPU, like the perf
    buffer's lost-sample records."""

    map_type = "perf_event_array"

    def __init__(self, kernel: Kernel, map_fd: int,
                 max_entries: int) -> None:
        super().__init__(kernel, map_fd, 0, 8, max_entries)
        self.capacity_bytes = max_entries
        ncpu = len(kernel.cpus)
        self._cpu_records: List[List[bytes]] = [[] for _ in range(ncpu)]
        self._cpu_used: List[int] = [0] * ncpu
        #: per-CPU counts of records refused with -ENOSPC
        self.cpu_drops: List[int] = [0] * ncpu

    def output(self, data: bytes) -> int:
        """Append a record to the running CPU's stream; returns 0 or
        -ENOSPC (counted against that CPU)."""
        cpu = self.kernel.current_cpu.cpu_id
        if self._fault("map.alloc") \
                or self._cpu_used[cpu] + len(data) > self.capacity_bytes:
            self.cpu_drops[cpu] += 1
            self.kernel.telemetry.record_ringbuf_drop(
                self.map_fd, len(data), cpu=cpu)
            return -ENOSPC
        self._cpu_records[cpu].append(data)
        self._cpu_used[cpu] += len(data)
        return 0

    def records_for_cpu(self, cpu_id: int) -> List[bytes]:
        """Peek at one CPU's pending records (no consumption)."""
        return list(self._cpu_records[cpu_id])

    def drain(self, cpu_id: Optional[int] = None) -> List[bytes]:
        """Consume pending records — one CPU's stream, or (default)
        every CPU's in CPU order."""
        cpus = range(len(self._cpu_records)) if cpu_id is None \
            else (cpu_id,)
        out: List[bytes] = []
        for cpu in cpus:
            out.extend(self._cpu_records[cpu])
            self._cpu_records[cpu] = []
            self._cpu_used[cpu] = 0
        return out

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        return None

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        return -EINVAL

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        return -EINVAL


class TaskStorageMap(BpfMap):
    """Per-task local storage (``BPF_MAP_TYPE_TASK_STORAGE``)."""

    map_type = BPF_MAP_TYPE_TASK_STORAGE

    def __init__(self, kernel: Kernel, map_fd: int,
                 value_size: int) -> None:
        super().__init__(kernel, map_fd, 8, value_size, 4096)
        self._by_task_addr: Dict[int, "Allocation"] = {}

    def storage_for(self, task_addr: int, create: bool) -> Optional[int]:
        """Address of this task's storage; optionally create it."""
        alloc = self._by_task_addr.get(task_addr)
        if alloc is None and create:
            if self._fault("map.alloc"):
                return None
            alloc = self.kernel.mem.kmalloc(
                self.value_size,
                type_name=f"task_storage{self.map_fd}", owner="bpf-map")
            self._by_task_addr[task_addr] = alloc
        return alloc.base if alloc is not None else None

    def delete_for(self, task_addr: int) -> int:
        """Drop this task's storage."""
        alloc = self._by_task_addr.pop(task_addr, None)
        if alloc is None:
            return -ENOENT
        self.kernel.mem.kfree(alloc)
        return 0

    def destroy(self) -> None:
        """See :meth:`BpfMap.destroy` — frees every task's slot."""
        for alloc in self._by_task_addr.values():
            if not alloc.freed:
                self.kernel.mem.kfree(alloc)
        self._by_task_addr.clear()
        super().destroy()

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        if not self._key_ok(key) or self._fault("map.lookup"):
            return None
        return self.storage_for(int.from_bytes(key, "little"), False)

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.update")
        if errno:
            return errno
        if len(value) != self.value_size:
            return -EINVAL
        addr = self.storage_for(int.from_bytes(key, "little"), True)
        if addr is None:
            return -ENOMEM
        self.kernel.mem.write(addr, value)
        return 0

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.delete")
        if errno:
            return errno
        return self.delete_for(int.from_bytes(key, "little"))


class ProgArrayMap(BpfMap):
    """Program array for ``bpf_tail_call`` [44]."""

    map_type = BPF_MAP_TYPE_PROG_ARRAY

    def __init__(self, kernel: Kernel, map_fd: int,
                 max_entries: int) -> None:
        super().__init__(kernel, map_fd, 4, 4, max_entries)
        #: index -> LoadedProgram; each slot is a reference that
        #: keeps its program loaded
        self._progs: Dict[int, object] = {}

    def set_prog(self, index: int, prog: object) -> None:
        """Install a program at ``index``."""
        if not 0 <= index < self.max_entries:
            raise BpfRuntimeError(f"prog array index {index} out of range")
        self._progs[index] = prog

    def get_prog(self, index: int) -> Optional[object]:
        """The program at ``index``, if any."""
        return self._progs.get(index)

    def destroy(self) -> None:
        """See :meth:`BpfMap.destroy` — also drops every slot's
        reference, so a program the array alone held is freed."""
        self._progs.clear()
        super().destroy()

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        return None

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        return -EINVAL

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        if not self._key_ok(key):
            return -EINVAL
        index = int.from_bytes(key, "little")
        return 0 if self._progs.pop(index, None) is not None else -ENOENT


class DevMap(BpfMap):
    """Device map (``BPF_MAP_TYPE_DEVMAP``): u32 index -> ifindex.

    The redirect table of the XDP data plane: userspace populates it
    with NIC ifindexes and programs pick a slot via
    ``bpf_redirect_map``.  Entries live in real kernel storage (an
    array of u32 slots; 0 means empty) so programs could in principle
    read them — but the interesting consumer is the data plane, which
    resolves the ifindex stashed by the redirect helper against its
    device registry *after* the program returns, exactly like
    ``xdp_do_redirect`` runs after the program's verdict."""

    map_type = BPF_MAP_TYPE_DEVMAP

    def __init__(self, kernel: Kernel, map_fd: int,
                 max_entries: int) -> None:
        super().__init__(kernel, map_fd, 4, 4, max_entries)
        self.storage = kernel.mem.kmalloc(
            4 * max_entries, type_name=f"devmap{map_fd}",
            owner="bpf-map")

    def set_target(self, index: int, ifindex: int) -> None:
        """Userspace-style install of a redirect target."""
        errno = self.update(index.to_bytes(4, "little"),
                            ifindex.to_bytes(4, "little"))
        if errno:
            raise BpfRuntimeError(
                f"devmap{self.map_fd}: set_target({index}) "
                f"failed with {errno}")

    def target(self, index: int) -> Optional[int]:
        """The ifindex at ``index`` (None when empty / out of range)."""
        if not 0 <= index < self.max_entries:
            return None
        raw = self.kernel.mem.read(self.storage.base + 4 * index, 4)
        ifindex = int.from_bytes(raw, "little")
        return ifindex if ifindex else None

    def lookup_addr(self, key: bytes) -> Optional[int]:
        """See :meth:`BpfMap.lookup_addr`."""
        if not self._key_ok(key) or self._fault("map.lookup"):
            return None
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return None
        return self.storage.base + 4 * index

    def update(self, key: bytes, value: bytes) -> int:
        """See :meth:`BpfMap.update`."""
        if not self._key_ok(key) or len(value) != self.value_size:
            return -EINVAL
        errno = self._fault("map.update")
        if errno:
            return errno
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return -E2BIG
        self.kernel.mem.write(self.storage.base + 4 * index, value)
        return 0

    def delete(self, key: bytes) -> int:
        """See :meth:`BpfMap.delete`."""
        if not self._key_ok(key):
            return -EINVAL
        errno = self._fault("map.delete")
        if errno:
            return errno
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return -ENOENT
        self.kernel.mem.write(self.storage.base + 4 * index, b"\x00" * 4)
        return 0
