"""Kernel aggregate, CPU, panic and object-model tests."""

import pytest

from repro.errors import KernelSafetyViolation, MemoryFault
from repro.kernel import Kernel
from repro.kernel.cpu import Cpu, InterruptContext
from repro.kernel.panic import KernelLog


class TestCpu:
    def test_starts_preemptible(self):
        cpu = Cpu(0)
        assert cpu.preemptible and not cpu.in_interrupt

    def test_irq_nesting(self):
        cpu = Cpu(0)
        cpu.irq_enter()
        cpu.irq_enter()
        assert cpu.in_interrupt
        cpu.irq_exit()
        assert cpu.in_interrupt
        cpu.irq_exit()
        assert not cpu.in_interrupt

    def test_irq_exit_underflow(self):
        with pytest.raises(RuntimeError):
            Cpu(0).irq_exit()

    def test_preempt_disable_enable(self):
        cpu = Cpu(0)
        cpu.preempt_disable()
        assert not cpu.preemptible
        cpu.preempt_enable()
        assert cpu.preemptible

    def test_preempt_enable_underflow(self):
        with pytest.raises(RuntimeError):
            Cpu(0).preempt_enable()

    def test_interrupt_context_manager(self):
        cpu = Cpu(0)
        with InterruptContext(cpu):
            assert cpu.in_interrupt
        assert not cpu.in_interrupt

    def test_irq_means_not_preemptible(self):
        cpu = Cpu(0)
        cpu.irq_enter()
        assert not cpu.preemptible
        cpu.irq_exit()


class TestKernelLog:
    def test_log_and_grep(self):
        log = KernelLog()
        log.log(0, "hello world")
        log.log(1, "other line")
        assert len(log.grep("hello")) == 1

    def test_dmesg_format(self):
        log = KernelLog()
        log.log(1_500_000_000, "booted")
        assert "[    1.500000] booted" in log.dmesg()

    def test_oops_taints(self):
        log = KernelLog()
        assert not log.tainted
        log.record_oops(0, "bad deref", category="null-deref",
                        source="bpf")
        assert log.tainted
        assert log.last_oops().category == "null-deref"

    def test_oops_writes_bug_line(self):
        log = KernelLog()
        log.record_oops(0, "boom", category="oops", source="x")
        assert log.grep("BUG:")
        assert log.grep("end trace")


class TestKernelAggregate:
    def test_boot_creates_init_task(self):
        kernel = Kernel()
        assert kernel.current_task.pid == 1
        assert kernel.current_task.comm == "init"

    def test_memory_fault_routes_to_oops(self):
        kernel = Kernel()
        with pytest.raises(MemoryFault):
            kernel.mem.read(0, 8, source="bpf:test")
        assert not kernel.healthy
        assert kernel.log.last_oops().source == "bpf:test"

    def test_check_alive_raises_after_oops(self):
        kernel = Kernel()
        with pytest.raises(MemoryFault):
            kernel.mem.read(0, 8)
        with pytest.raises(KernelSafetyViolation):
            kernel.check_alive()

    def test_work_advances_clock(self):
        kernel = Kernel()
        kernel.work(1000)
        assert kernel.clock.now_ns == 1000

    def test_create_task_assigns_pids(self):
        kernel = Kernel()
        a = kernel.create_task()
        b = kernel.create_task()
        assert a.pid != b.pid
        assert kernel.task_by_pid(a.pid) is a

    def test_lookup_socket_by_tuple(self):
        kernel = Kernel()
        sock = kernel.create_socket(src_ip=0x0A000001, src_port=443)
        assert kernel.lookup_socket(0x0A000001, 443) is sock
        assert kernel.lookup_socket(0x0A000001, 80) is None


class TestObjects:
    def test_task_fields_via_memory(self):
        kernel = Kernel()
        task = kernel.create_task(comm="worker", pid=42)
        assert task.read_field("pid") == 42
        assert task.read_field("tgid") == 42
        raw = kernel.mem.read(task.field_address("comm"), 6)
        assert raw == b"worker"

    def test_task_has_kernel_stack(self):
        kernel = Kernel()
        task = kernel.create_task()
        assert task.read_field("stack_ptr") == task.kernel_stack.base

    def test_sock_fields(self):
        kernel = Kernel()
        sock = kernel.create_socket(src_ip=0x7F000001, src_port=8080,
                                    dst_ip=0x0A000002, dst_port=9090)
        assert sock.read_field("src_port") == 8080
        assert sock.read_field("dst_ip") == 0x0A000002
        assert sock.read_field("family") == 2

    def test_skb_data_pointers(self):
        kernel = Kernel()
        skb = kernel.create_skb(b"hello")
        assert skb.data_end - skb.data == 5
        assert kernel.mem.read(skb.data, 5) == b"hello"
        assert skb.read_field("len") == 5

    def test_skb_empty_payload(self):
        kernel = Kernel()
        skb = kernel.create_skb(b"")
        assert skb.read_field("len") == 0

    def test_skb_is_built_in_two_checked_stores(self):
        kernel = Kernel()
        stores = []
        write = kernel.mem.write

        def counted(address, data, **kwargs):
            stores.append((address, len(data)))
            write(address, data, **kwargs)

        kernel.mem.write = counted
        skb = kernel.create_skb(b"hello", protocol=0x86DD)
        assert stores == [(skb.data, 5), (skb.address, 24)]
        assert [skb.read_field(name)
                for name in ("len", "protocol", "mark")] == [5, 0x86DD, 0]
        assert skb.data_end == skb.data + 5

    def test_stale_skb_aliases_the_next_packets_skb(self):
        """The recycled-frame precision trade: a freed skb's range is
        the next packet's skb, so a stale handle reads the live one."""
        kernel = Kernel()
        first = kernel.create_skb(b"hello")
        first.free()
        with pytest.raises(MemoryFault):
            first.read_field("len")
        second = kernel.create_skb(b"hi")
        assert (second.address, second.data) == (first.address, first.data)
        assert first.read_field("len") == 2
        second.free()

    def test_write_field_truncates(self):
        kernel = Kernel()
        skb = kernel.create_skb(b"x")
        skb.write_field("mark", 0x1_FFFF_FFFF)
        assert skb.read_field("mark") == 0xFFFF_FFFF

    def test_object_free_then_access_faults(self):
        kernel = Kernel()
        task = kernel.create_task()
        task.free()
        with pytest.raises(MemoryFault):
            task.read_field("pid")

    def test_request_sock_refcounted(self):
        kernel = Kernel()
        reqsk = kernel.create_request_sock("r1")
        assert reqsk.refs.refcount == 1
