"""Kernel address space unit tests."""

import pytest

from repro.errors import (
    MemoryFault,
    NullDereference,
    OutOfBoundsAccess,
    UseAfterFree,
)
from repro.kernel.memory import (
    KERNEL_BASE,
    KernelAddressSpace,
    NULL_PAGE_SIZE,
    QUARANTINE_BYTES,
    slot_bytes,
)


@pytest.fixture
def mem():
    return KernelAddressSpace()


class TestAllocation:
    def test_kmalloc_returns_kernel_address(self, mem):
        alloc = mem.kmalloc(64)
        assert alloc.base >= KERNEL_BASE

    def test_allocations_do_not_overlap(self, mem):
        a = mem.kmalloc(64)
        b = mem.kmalloc(64)
        assert a.end <= b.base or b.end <= a.base

    def test_red_zone_between_allocations(self, mem):
        a = mem.kmalloc(16)
        b = mem.kmalloc(16)
        assert b.base > a.end  # gap exists

    def test_zeroed_on_allocation(self, mem):
        alloc = mem.kmalloc(32)
        assert mem.read(alloc.base, 32) == b"\x00" * 32

    def test_zero_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.kmalloc(0)

    def test_negative_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.kmalloc(-8)

    def test_live_bytes_accounting(self, mem):
        a = mem.kmalloc(100)
        mem.kmalloc(50)
        assert mem.live_bytes == 150
        mem.kfree(a)
        assert mem.live_bytes == 50

    def test_live_allocations_filter_by_owner(self, mem):
        mem.kmalloc(8, owner="bpf")
        mem.kmalloc(8, owner="net")
        mem.kmalloc(8, owner="bpf")
        assert len(mem.live_allocations(owner="bpf")) == 2

    def test_alloc_ids_unique(self, mem):
        ids = {mem.kmalloc(8).alloc_id for __ in range(10)}
        assert len(ids) == 10


class TestCheckedAccess:
    def test_write_read_roundtrip(self, mem):
        alloc = mem.kmalloc(16)
        mem.write(alloc.base + 4, b"\xde\xad")
        assert mem.read(alloc.base + 4, 2) == b"\xde\xad"

    def test_u64_roundtrip(self, mem):
        alloc = mem.kmalloc(8)
        mem.write_u64(alloc.base, 0x0123456789ABCDEF)
        assert mem.read_u64(alloc.base) == 0x0123456789ABCDEF

    def test_u64_wraps_to_64_bits(self, mem):
        alloc = mem.kmalloc(8)
        mem.write_u64(alloc.base, -1)
        assert mem.read_u64(alloc.base) == (1 << 64) - 1

    def test_null_dereference_faults(self, mem):
        with pytest.raises(NullDereference):
            mem.read(0, 8)

    def test_near_null_faults(self, mem):
        with pytest.raises(NullDereference):
            mem.read(NULL_PAGE_SIZE - 1, 1)

    def test_wild_access_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read(KERNEL_BASE + 0x123456, 8)

    def test_use_after_free_faults(self, mem):
        alloc = mem.kmalloc(8)
        mem.kfree(alloc)
        with pytest.raises(UseAfterFree):
            mem.read(alloc.base, 8)

    @pytest.mark.parametrize("type_name", ("void", "bpf_stack"))
    def test_kfree_drops_the_bytes_and_accesses_still_fault(
            self, mem, type_name):
        alloc = mem.kmalloc(64, type_name=type_name)
        mem.write(alloc.base, b"\xaa" * 64)
        mem.kfree(alloc)
        assert len(alloc.data) == 0
        with pytest.raises(UseAfterFree) as fault:
            mem.read(alloc.base + 8, 8)
        assert str(fault.value) == \
            f"use-after-free of {type_name} at {alloc.base + 8:#x}"
        with pytest.raises(UseAfterFree):
            mem.write(alloc.base, b"\x00")
        assert mem.try_read(alloc.base, 8) is None
        assert not mem.try_write(alloc.base, b"\x00")
        assert len(alloc.data) == 0

    def test_double_free_faults(self, mem):
        alloc = mem.kmalloc(8)
        mem.kfree(alloc)
        with pytest.raises(UseAfterFree):
            mem.kfree(alloc)

    def test_out_of_bounds_faults(self, mem):
        alloc = mem.kmalloc(8)
        with pytest.raises(OutOfBoundsAccess):
            mem.read(alloc.base + 4, 8)

    def test_fault_carries_address_and_source(self, mem):
        alloc = mem.kmalloc(8)
        try:
            mem.read(alloc.base + 100, 1, source="test-prog")
        except MemoryFault as fault:
            assert fault.address == alloc.base + 100
            assert fault.source == "test-prog"
        else:
            pytest.fail("no fault raised")

    def test_fault_hook_invoked_before_raise(self, mem):
        seen = []
        mem.fault_hook = seen.append
        with pytest.raises(NullDereference):
            mem.read(0, 1)
        assert len(seen) == 1
        assert seen[0].category == "null-deref"

    def test_zero_size_read_returns_empty(self, mem):
        alloc = mem.kmalloc(8)
        assert mem.read(alloc.base, 0) == b""

    def test_empty_write_is_noop(self, mem):
        alloc = mem.kmalloc(8)
        mem.write(alloc.base, b"")
        assert mem.read(alloc.base, 8) == b"\x00" * 8


class TestNonFaultingAccess:
    def test_try_read_valid(self, mem):
        alloc = mem.kmalloc(8)
        mem.write(alloc.base, b"hi")
        assert mem.try_read(alloc.base, 2) == b"hi"

    def test_try_read_null_returns_none(self, mem):
        assert mem.try_read(0, 8) is None

    def test_try_read_freed_returns_none(self, mem):
        alloc = mem.kmalloc(8)
        mem.kfree(alloc)
        assert mem.try_read(alloc.base, 8) is None

    def test_try_read_oob_returns_none(self, mem):
        alloc = mem.kmalloc(8)
        assert mem.try_read(alloc.base + 4, 8) is None

    def test_try_write_valid(self, mem):
        alloc = mem.kmalloc(8)
        assert mem.try_write(alloc.base, b"ab")
        assert mem.read(alloc.base, 2) == b"ab"

    def test_try_write_invalid_returns_false(self, mem):
        assert not mem.try_write(0x1234, b"ab")

    def test_valid_range(self, mem):
        alloc = mem.kmalloc(16)
        assert mem.valid_range(alloc.base, 16)
        assert not mem.valid_range(alloc.base, 17)
        assert not mem.valid_range(0, 1)

    def test_try_read_never_triggers_fault_hook(self, mem):
        seen = []
        mem.fault_hook = seen.append
        mem.try_read(0, 8)
        assert seen == []


class TestFindAllocation:
    def test_finds_containing_allocation(self, mem):
        allocs = [mem.kmalloc(32) for __ in range(5)]
        target = allocs[2]
        found = mem.find_allocation(target.base + 10)
        assert found is target

    def test_returns_none_for_gap(self, mem):
        alloc = mem.kmalloc(16)
        assert mem.find_allocation(alloc.end + 1) is None

    def test_freed_allocation_still_found(self, mem):
        alloc = mem.kmalloc(16)
        mem.kfree(alloc)
        found = mem.find_allocation(alloc.base)
        assert found is alloc and found.freed


def stack(mem, owner="bpf:prog"):
    return mem.kmalloc(512, type_name="bpf_stack", owner=owner)


class TestStackRecycling:
    def test_freed_stack_base_is_reused(self, mem):
        first = stack(mem)
        mem.kfree(first)
        assert stack(mem).base == first.base

    def test_reused_stack_is_zeroed_and_retagged(self, mem):
        mem.kmalloc(40)
        first = stack(mem, owner="bpf:a")
        mem.write(first.base + 500, b"\xff" * 12)
        mem.kfree(first)
        assert mem.live_bytes == 40
        second = stack(mem, owner="bpf:b")
        assert second.base == first.base
        assert second.alloc_id != first.alloc_id
        assert mem.read(second.base, 512) == bytes(512)
        assert second.owner == "bpf:b"
        assert mem.live_allocations(owner="bpf:b") == [second]
        assert mem.live_allocations(owner="bpf:a") == []
        assert mem.live_bytes == 40 + 512
        mem.kfree(second)
        assert mem.live_bytes == 40

    def test_recycled_frame_between_runs_is_use_after_free(self, mem):
        frame = stack(mem)
        mem.kfree(frame)
        mem.kfree(stack(mem))   # a second run came and went
        with pytest.raises(UseAfterFree):
            mem.read(frame.base + 8, 8)
        assert not mem.valid_range(frame.base, 8)

    def test_double_free_of_a_frame_faults(self, mem):
        frame = stack(mem)
        mem.kfree(frame)
        with pytest.raises(UseAfterFree):
            mem.kfree(frame)

    def test_stale_free_cannot_release_the_next_runs_frame(self, mem):
        frame = stack(mem)
        mem.kfree(frame)
        current = stack(mem)
        with pytest.raises(UseAfterFree):
            mem.kfree(frame)
        assert not current.freed
        assert mem.read(current.base, 8) == bytes(8)

    def test_live_frames_never_share_a_base(self, mem):
        outer = stack(mem)
        inner = stack(mem)          # nested subprogram frame
        assert inner.base != outer.base
        mem.kfree(inner)
        again = stack(mem)
        assert again.base == inner.base != outer.base

    def test_frames_come_back_last_in_first_out(self, mem):
        a, b = stack(mem), stack(mem)
        mem.kfree(a)
        mem.kfree(b)
        assert stack(mem).base == b.base
        assert stack(mem).base == a.base

    def test_only_stacks_are_recycled(self, mem):
        buf = mem.kmalloc(512, type_name="val")
        mem.kfree(buf)
        assert mem.kmalloc(512, type_name="val").base != buf.base
        assert stack(mem).base != buf.base

    def test_many_runs_keep_the_index_flat(self, mem):
        for __ in range(1000):
            outer = stack(mem)
            mem.kfree(stack(mem))
            mem.kfree(outer)
        assert len(mem._by_base) == 2
        assert mem.live_allocations() == []


def free_slots(mem, nbytes):
    """Free fresh allocations whose slots add up to ``nbytes``."""
    while nbytes:
        size = min(nbytes, 4096) - 16
        mem.kfree(mem.kmalloc(size))
        nbytes -= slot_bytes(size)


class TestQuarantine:
    def test_slots_include_alignment_and_red_zone(self):
        assert slot_bytes(1) == 32
        assert slot_bytes(16) == 32
        assert slot_bytes(17) == 48

    def test_freed_range_is_use_after_free_inside_the_budget(self, mem):
        victim = mem.kmalloc(64, type_name="sock")
        mem.kfree(victim)
        free_slots(mem, QUARANTINE_BYTES - slot_bytes(64))
        with pytest.raises(UseAfterFree):
            mem.read(victim.base, 8)
        assert mem.find_allocation(victim.base) is victim

    def test_evicted_range_faults_as_a_wild_access(self, mem):
        victim = mem.kmalloc(64, type_name="sock")
        mem.kfree(victim)
        free_slots(mem, QUARANTINE_BYTES)
        with pytest.raises(MemoryFault) as excinfo:
            mem.read(victim.base, 8)
        assert type(excinfo.value) is MemoryFault
        assert "wild" in str(excinfo.value)
        assert not mem.valid_range(victim.base, 8)
        assert mem.find_allocation(victim.base) is None

    def test_eviction_is_oldest_first(self, mem):
        old = mem.kmalloc(16)
        young = mem.kmalloc(16)
        mem.kfree(old)
        mem.kfree(young)
        free_slots(mem, QUARANTINE_BYTES - slot_bytes(16))
        assert mem.find_allocation(old.base) is None
        assert mem.find_allocation(young.base) is young

    def test_evicted_range_is_never_handed_out_again(self, mem):
        victim = mem.kmalloc(64)
        mem.kfree(victim)
        free_slots(mem, QUARANTINE_BYTES)
        fresh = [mem.kmalloc(64) for __ in range(8)]
        assert all(a.base > victim.base for a in fresh)

    def test_index_holds_live_and_quarantined_ranges_only(self, mem):
        keep = mem.kmalloc(8)
        for __ in range(3):
            mem.kfree(mem.kmalloc(QUARANTINE_BYTES // 2 - 16))
        assert len(mem._by_base) == 3   # keep + the two newest frees
        assert mem.live_allocations() == [keep]

    def test_stacks_stay_out_of_the_quarantine(self, mem):
        victim = mem.kmalloc(64)
        mem.kfree(victim)
        for __ in range(QUARANTINE_BYTES // 512 + 1):
            mem.kfree(stack(mem))
        with pytest.raises(UseAfterFree):
            mem.read(victim.base, 8)
