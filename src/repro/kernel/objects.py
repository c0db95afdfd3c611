"""Kernel object models: tasks, sockets, socket buffers.

These are the objects the paper's helpers touch: ``task_struct``
(``bpf_get_current_pid_tgid``, ``bpf_get_task_stack``,
``bpf_task_storage_get``), sockets and request sockets
(``bpf_sk_lookup_tcp`` and its leak bug [35]), and ``sk_buff`` (the
context of socket filters / XDP).

Each object is backed by a real allocation in the simulated address
space, with a declared field layout, so extension bytecode can reach
them through raw addresses — and fault exactly where real code would.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.kernel.memory import Allocation, KernelAddressSpace
from repro.kernel.refcount import RefcountRegistry


@dataclass(frozen=True)
class Field:
    """One field in a kernel object layout."""

    offset: int
    size: int


class KernelObject:
    """Base class: a typed, memory-backed kernel object."""

    #: subclasses declare their layout here
    LAYOUT: Dict[str, Field] = {}
    #: total object size in bytes
    SIZE = 0
    TYPE_NAME = "object"

    def __init__(self, mem: KernelAddressSpace, owner: str = "kernel") -> None:
        self._mem = mem
        self.alloc: Allocation = mem.kmalloc(
            self.SIZE, type_name=self.TYPE_NAME, owner=owner)

    @property
    def address(self) -> int:
        """Kernel virtual address of the object."""
        return self.alloc.base

    def field_address(self, name: str) -> int:
        """Address of a named field."""
        return self.alloc.base + self.LAYOUT[name].offset

    def read_field(self, name: str) -> int:
        """Load a field as an unsigned little-endian integer."""
        fld = self.LAYOUT[name]
        raw = self._mem.read(self.alloc.base + fld.offset, fld.size)
        return int.from_bytes(raw, "little")

    def write_field(self, name: str, value: int) -> None:
        """Store an unsigned integer into a field."""
        fld = self.LAYOUT[name]
        data = (value & ((1 << (fld.size * 8)) - 1)).to_bytes(
            fld.size, "little")
        self._mem.write(self.alloc.base + fld.offset, data)

    def free(self) -> None:
        """Release the backing allocation."""
        self._mem.kfree(self.alloc)


class TaskStruct(KernelObject):
    """A process/thread, with the fields helpers actually read."""

    LAYOUT = {
        "pid": Field(0, 4),
        "tgid": Field(4, 4),
        "flags": Field(8, 4),
        "stack_ptr": Field(16, 8),
        "comm": Field(24, 16),
    }
    SIZE = 64
    TYPE_NAME = "task_struct"

    def __init__(self, mem: KernelAddressSpace, refs: RefcountRegistry,
                 pid: int, tgid: Optional[int] = None,
                 comm: str = "task") -> None:
        super().__init__(mem)
        self.pid = pid
        self.tgid = tgid if tgid is not None else pid
        self.comm = comm
        self.write_field("pid", pid)
        self.write_field("tgid", self.tgid)
        self.refs = refs.create(f"task:{pid}", "task_struct")
        encoded = comm.encode()[:15].ljust(16, b"\x00")
        mem.write(self.field_address("comm"), encoded)
        # a small kernel stack, target of bpf_get_task_stack
        self.kernel_stack = mem.kmalloc(
            256, type_name="kernel_stack", owner=f"task:{pid}")
        self.write_field("stack_ptr", self.kernel_stack.base)


class Sock(KernelObject):
    """A full socket (``struct sock``)."""

    LAYOUT = {
        "family": Field(0, 2),
        "state": Field(2, 2),
        "src_port": Field(4, 2),
        "dst_port": Field(6, 2),
        "src_ip": Field(8, 4),
        "dst_ip": Field(12, 4),
    }
    SIZE = 32
    TYPE_NAME = "sock"

    def __init__(self, mem: KernelAddressSpace, refs: RefcountRegistry,
                 src_ip: int = 0, src_port: int = 0,
                 dst_ip: int = 0, dst_port: int = 0) -> None:
        super().__init__(mem)
        self.write_field("family", 2)  # AF_INET
        self.write_field("src_ip", src_ip)
        self.write_field("src_port", src_port)
        self.write_field("dst_ip", dst_ip)
        self.write_field("dst_port", dst_port)
        self.refs = refs.create(
            f"sock:{src_ip:#x}:{src_port}", "sock")


class RequestSock(KernelObject):
    """A connection-request mini-socket (``struct request_sock``).

    ``bpf_sk_lookup_tcp`` can return one of these; the leak bug the
    paper cites [35] failed to drop its reference.
    """

    LAYOUT = {
        "family": Field(0, 2),
        "state": Field(2, 2),
    }
    SIZE = 16
    TYPE_NAME = "request_sock"

    def __init__(self, mem: KernelAddressSpace,
                 refs: RefcountRegistry, name: str) -> None:
        super().__init__(mem)
        self.refs = refs.create(f"reqsk:{name}", "request_sock")


#: the skb header fields an skb is built with, in one store:
#: len(4) protocol(4) data(8) data_end(8)
_SKB_HEAD_PACK = struct.Struct("<IIQQ")


class SkBuff(KernelObject):
    """A socket buffer: packet metadata plus a data area."""

    LAYOUT = {
        "len": Field(0, 4),
        "protocol": Field(4, 4),
        "data": Field(8, 8),       # pointer to packet data
        "data_end": Field(16, 8),  # pointer one past packet data
        "mark": Field(24, 4),
    }
    SIZE = 32
    TYPE_NAME = "sk_buff"

    def __init__(self, mem: KernelAddressSpace, payload: bytes,
                 protocol: int = 0x0800) -> None:
        super().__init__(mem)
        self.payload_alloc = mem.kmalloc(
            max(len(payload), 1), type_name="skb_data", owner="net")
        data = self.payload_alloc.base
        mem.write(data, payload)
        mem.write(self.alloc.base, _SKB_HEAD_PACK.pack(
            len(payload), protocol & 0xFFFF_FFFF, data, data + len(payload)))

    def free(self) -> None:
        """Release the header and the payload it points to."""
        super().free()
        self._mem.kfree(self.payload_alloc)

    @property
    def data(self) -> int:
        """Address of the first payload byte."""
        return self.read_field("data")

    @property
    def data_end(self) -> int:
        """Address one past the last payload byte."""
        return self.read_field("data_end")
