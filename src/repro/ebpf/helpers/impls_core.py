"""Core helper implementations: maps, time, current-task accessors.

Each function receives a :class:`~repro.ebpf.helpers.base.HelperCallContext`
and returns the value placed in R0.  Implementations operate on the
simulated kernel through real (checked) memory accesses, so a bad
pointer reaching a helper produces a genuine kernel fault.
"""

from __future__ import annotations

from repro.ebpf.helpers.base import HelperCallContext

EINVAL = 22
EFAULT = 14
ENOENT = 2

U64 = (1 << 64) - 1


def _resolve_map(ctx: HelperCallContext, value: int):
    """Map argument -> BpfMap (verifier guarantees this is a map ptr)."""
    return ctx.vm.resolve_map_ptr(value)


def bpf_map_lookup_elem(ctx: HelperCallContext) -> int:
    """``void *bpf_map_lookup_elem(map, key)`` — NULL (0) on miss."""
    bpf_map = _resolve_map(ctx, ctx.args[0])
    if bpf_map is None:
        return 0
    key = ctx.kernel.mem.read(ctx.args[1], bpf_map.key_size,
                              source=ctx.vm.prog_tag)
    addr = bpf_map.lookup_addr(key)
    return addr if addr is not None else 0


def bpf_map_update_elem(ctx: HelperCallContext) -> int:
    """``long bpf_map_update_elem(map, key, value, flags)``."""
    bpf_map = _resolve_map(ctx, ctx.args[0])
    if bpf_map is None:
        return -EINVAL
    mem = ctx.kernel.mem
    key = mem.read(ctx.args[1], bpf_map.key_size, source=ctx.vm.prog_tag)
    value = mem.read(ctx.args[2], bpf_map.value_size,
                     source=ctx.vm.prog_tag)
    return bpf_map.update(key, value)


def bpf_map_delete_elem(ctx: HelperCallContext) -> int:
    """``long bpf_map_delete_elem(map, key)``."""
    bpf_map = _resolve_map(ctx, ctx.args[0])
    if bpf_map is None:
        return -EINVAL
    key = ctx.kernel.mem.read(ctx.args[1], bpf_map.key_size,
                              source=ctx.vm.prog_tag)
    return bpf_map.delete(key)


def bpf_probe_read(ctx: HelperCallContext) -> int:
    """``long bpf_probe_read(dst, size, unsafe_ptr)``.

    Reads *arbitrary* kernel memory, but through the non-faulting path
    (exception tables in the real kernel), so a bad address returns
    -EFAULT rather than oopsing.  Note what this means for safety: a
    verified tracing program can still read any kernel data it can
    name — the verifier's "no arbitrary memory access" guarantee stops
    at this helper's boundary.
    """
    dst, size, unsafe_ptr = ctx.args[0], ctx.args[1], ctx.args[2]
    if size == 0:
        return 0
    data = ctx.kernel.mem.try_read(unsafe_ptr, size)
    if data is None:
        # zero the destination, as the real helper does on failure
        ctx.kernel.mem.try_write(dst, b"\x00" * size)
        return -EFAULT
    if not ctx.kernel.mem.try_write(dst, data):
        return -EFAULT
    return 0


def bpf_probe_read_kernel(ctx: HelperCallContext) -> int:
    """``long bpf_probe_read_kernel(dst, size, unsafe_ptr)``."""
    return bpf_probe_read(ctx)


def bpf_probe_read_str(ctx: HelperCallContext) -> int:
    """``long bpf_probe_read_str(dst, size, unsafe_ptr)`` — copy a
    NUL-terminated string, returning the length including the NUL."""
    dst, size, unsafe_ptr = ctx.args[0], ctx.args[1], ctx.args[2]
    if size == 0:
        return 0
    copied = bytearray()
    for index in range(size - 1):
        byte = ctx.kernel.mem.try_read(unsafe_ptr + index, 1)
        if byte is None:
            if index == 0:
                return -EFAULT
            break
        copied.append(byte[0])
        if byte[0] == 0:
            break
    if not copied or copied[-1] != 0:
        copied.append(0)
    if not ctx.kernel.mem.try_write(dst, bytes(copied)):
        return -EFAULT
    return len(copied)


def bpf_jiffies64(ctx: HelperCallContext) -> int:
    """``u64 bpf_jiffies64(void)`` — 250 HZ jiffies off the clock."""
    return ctx.kernel.clock.now_ns // 4_000_000


def bpf_ktime_get_boot_ns(ctx: HelperCallContext) -> int:
    """``u64 bpf_ktime_get_boot_ns(void)`` — same clock, boot base."""
    return ctx.kernel.clock.now_ns


def bpf_perf_event_output(ctx: HelperCallContext) -> int:
    """``long bpf_perf_event_output(ctx, map, flags, data, size)`` —
    stream a record to the perf buffer (modeled as a ring)."""
    bpf_map = ctx.vm.resolve_map_ptr(ctx.args[1])
    if bpf_map is None or bpf_map.map_type not in ("perf_event_array",
                                                   "ringbuf"):
        return -EINVAL
    data = ctx.kernel.mem.read(ctx.args[3], ctx.args[4],
                               source=ctx.vm.prog_tag)
    return bpf_map.output(data)


def bpf_snprintf(ctx: HelperCallContext) -> int:
    """``long bpf_snprintf(out, out_size, fmt, data, data_len)``.

    A pure formatting routine in the kernel purely because eBPF cannot
    express it — one of the 16 retire-class helpers (§3.2).  Supports
    the %d/%u/%x/%% subset over an array of u64 args."""
    out, out_size, fmt_ptr, data_ptr, data_len = ctx.args[:5]
    if out_size == 0 or data_len % 8 != 0:
        return -EINVAL
    mem = ctx.kernel.mem
    raw_fmt = bytearray()
    for index in range(256):
        byte = mem.try_read(fmt_ptr + index, 1)
        if byte is None:
            return -EFAULT
        if byte[0] == 0:
            break
        raw_fmt.append(byte[0])
    fmt = raw_fmt.decode("latin-1")
    values = [mem.read_u64(data_ptr + off, source=ctx.vm.prog_tag)
              for off in range(0, data_len, 8)]
    result = []
    arg_index = 0
    index = 0
    while index < len(fmt):
        char = fmt[index]
        if char != "%":
            result.append(char)
            index += 1
            continue
        if index + 1 >= len(fmt):
            return -EINVAL
        spec = fmt[index + 1]
        index += 2
        if spec == "%":
            result.append("%")
            continue
        if arg_index >= len(values):
            return -EINVAL
        value = values[arg_index]
        arg_index += 1
        if spec == "d":
            signed = value - (1 << 64) if value >> 63 else value
            result.append(str(signed))
        elif spec == "u":
            result.append(str(value))
        elif spec == "x":
            result.append(f"{value:x}")
        else:
            return -EINVAL
    encoded = "".join(result).encode("latin-1")[:out_size - 1] + b"\x00"
    mem.write(out, encoded, source=ctx.vm.prog_tag)
    return len(encoded)


def bpf_ktime_get_ns(ctx: HelperCallContext) -> int:
    """``u64 bpf_ktime_get_ns(void)``."""
    return ctx.kernel.clock.now_ns


def bpf_trace_printk(ctx: HelperCallContext) -> int:
    """``long bpf_trace_printk(fmt, fmt_size, ...)`` — logs to dmesg."""
    fmt_ptr, fmt_size = ctx.args[0], ctx.args[1]
    raw = ctx.kernel.mem.read(fmt_ptr, fmt_size, source=ctx.vm.prog_tag)
    text = raw.split(b"\x00")[0].decode("latin-1")
    ctx.kernel.log.log(ctx.kernel.clock.now_ns,
                       f"bpf_trace_printk: {text}")
    return len(text)


def bpf_get_prandom_u32(ctx: HelperCallContext) -> int:
    """``u32 bpf_get_prandom_u32(void)`` — deterministic in simulation."""
    return ctx.vm.next_prandom()


def bpf_get_smp_processor_id(ctx: HelperCallContext) -> int:
    """``u32 bpf_get_smp_processor_id(void)``."""
    return ctx.kernel.current_cpu.cpu_id


def bpf_get_current_pid_tgid(ctx: HelperCallContext) -> int:
    """``u64 bpf_get_current_pid_tgid(void)`` — tgid<<32 | pid.

    The paper's Figure 3 floor case: this helper calls no other kernel
    function.
    """
    task = ctx.kernel.current_task
    return ((task.tgid << 32) | task.pid) & U64


def bpf_get_current_uid_gid(ctx: HelperCallContext) -> int:
    """``u64 bpf_get_current_uid_gid(void)`` — root in the simulation."""
    return 0


def bpf_get_current_comm(ctx: HelperCallContext) -> int:
    """``long bpf_get_current_comm(buf, size_of_buf)``."""
    buf, size = ctx.args[0], ctx.args[1]
    if size == 0:
        return -EINVAL
    comm = ctx.kernel.current_task.comm.encode()[:size - 1]
    ctx.kernel.mem.write(buf, comm + b"\x00" * (size - len(comm)),
                         source=ctx.vm.prog_tag)
    return 0


def bpf_get_current_task(ctx: HelperCallContext) -> int:
    """``u64 bpf_get_current_task(void)``.

    Returns a raw ``task_struct`` kernel address *typed as a scalar* —
    the old ABI.  Anything the program does with it (store it in a
    user-readable map, pass it back into helpers) is invisible to the
    verifier's pointer tracking: a built-in kernel-pointer leak.
    """
    return ctx.kernel.current_task.address
