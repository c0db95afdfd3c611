"""The kernel-crate API: SafeLang's entire view of the kernel.

Every function and method here is the §3.2 program in executable form:

* **retired helpers** simply don't exist — ``bpf_strtol`` is
  ``str.parse_i64()``, ``bpf_strncmp`` is a loop over ``byte_at``,
  ``bpf_loop`` is the language's ``for``/``while``;
* **simplified helpers** keep a thin unsafe core but move the
  error-prone parts into this safe boundary — array-map indexing is
  computed here in full precision (killing the [36] 32-bit overflow),
  socket lookups return RAII handles (killing the [34]/[35] refcount
  bugs);
* **wrapped helpers** sanitize their inputs before touching unsafe
  code — the ``sys_bpf`` wrapper builds its attr from borrowed,
  provably valid memory (killing CVE-2022-2785), and task-storage
  takes a ``&Task`` that cannot be NULL (killing [42]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.kcrate.resources import KernelResource, VecHandle
from repro.core.lang import types as T

#: TCP_NEW_SYN_RECV (see impls_net): lookup hits a pending request sock
_TCP_NEW_SYN_RECV = 12

SOCKET = T.ResourceTy("Socket")
TASK = T.ResourceTy("Task")
SPIN_GUARD = T.ResourceTy("SpinGuard")
XDP_CTX = T.ResourceTy("XdpCtx")
TRACE_CTX = T.ResourceTy("TraceCtx")
VEC_U64 = T.VecTy(T.U64)


@dataclass
class ApiFn:
    """One kcrate free function: signature plus trusted impl."""

    name: str
    params: List[T.Ty]
    ret: T.Ty
    impl: Callable
    #: virtual nanoseconds charged per call
    cost: int = 40


@dataclass
class ApiMethod:
    """One method on a kcrate-provided type."""

    recv: str          # type key, e.g. "Socket", "str", "Vec"
    name: str
    params: List[T.Ty]
    ret: T.Ty
    impl: Callable
    cost: int = 20


class ApiTable:
    """Signature + implementation lookup for the type checker and VM."""

    def __init__(self) -> None:
        self.functions: Dict[str, ApiFn] = {}
        self.methods: Dict[Tuple[str, str], ApiMethod] = {}

    def add_fn(self, fn: ApiFn) -> None:
        """Register a free function."""
        self.functions[fn.name] = fn

    def add_method(self, method: ApiMethod) -> None:
        """Register a method."""
        self.methods[(method.recv, method.name)] = method

    def method_for(self, ty: T.Ty, name: str) -> Optional[ApiMethod]:
        """Resolve a method on ``ty`` (auto-dereferencing references)."""
        if isinstance(ty, T.RefTy):
            ty = ty.inner
        if isinstance(ty, T.ResourceTy):
            key = ty.name
        elif isinstance(ty, T.VecTy):
            key = "Vec"
        elif isinstance(ty, T.PrimTy):
            key = ty.name
        else:
            return None
        return self.methods.get((key, name))


def _u64(value: int) -> int:
    return value & ((1 << 64) - 1)


# ---------------------------------------------------------------------------
# implementations (rt is the RtEnv from repro.core.vm)
# ---------------------------------------------------------------------------

def _map_slot(rt, slot: int):
    bpf_map = rt.map_by_slot(slot)
    if bpf_map is None:
        rt.panic(f"extension references unbound map slot {slot}")
    return bpf_map


def _array_value_addr(rt, bpf_map, index: int) -> Optional[int]:
    """Array indexing in safe code, full precision — the §3.2 fix for
    the [36] 32-bit overflow: the multiply happens here, checked,
    before any unsafe memory is touched."""
    if index >= bpf_map.max_entries:
        return None
    return bpf_map.storage.base + index * bpf_map.value_size


def _value_addr(rt, bpf_map, key: int) -> Optional[int]:
    if bpf_map.map_type == "array":
        return _array_value_addr(rt, bpf_map, key)
    key_bytes = (key & ((1 << (bpf_map.key_size * 8)) - 1)).to_bytes(
        bpf_map.key_size, "little")
    return bpf_map.lookup_addr(key_bytes)


def _read_value(rt, bpf_map, addr: int) -> int:
    """Load a map value as an integer (values wider than 8 bytes
    yield their first 8 bytes)."""
    width = min(bpf_map.value_size, 8)
    raw = rt.kernel.mem.read(addr, width, source="kcrate")
    return int.from_bytes(raw, "little")


def _value_bytes(bpf_map, value: int) -> bytes:
    """Encode an integer into a full-width map value."""
    width = bpf_map.value_size
    return (_u64(value) & ((1 << (8 * min(width, 8))) - 1)).to_bytes(
        min(width, 8), "little").ljust(width, b"\x00")


def api_map_lookup(rt, slot: int, key: int):
    """``map_lookup(map, key) -> Option<u64>``."""
    bpf_map = _map_slot(rt, slot)
    addr = _value_addr(rt, bpf_map, key)
    if addr is None:
        return ("none", None)
    return ("some", _read_value(rt, bpf_map, addr))


def api_map_update(rt, slot: int, key: int, value: int) -> int:
    """``map_update(map, key, value) -> i64``."""
    bpf_map = _map_slot(rt, slot)
    if bpf_map.map_type == "array":
        addr = _array_value_addr(rt, bpf_map, key)
        if addr is None:
            return -7  # -E2BIG
        rt.kernel.mem.write(addr, _value_bytes(bpf_map, value),
                            source="kcrate")
        return 0
    key_bytes = (key & ((1 << (bpf_map.key_size * 8)) - 1)).to_bytes(
        bpf_map.key_size, "little")
    return bpf_map.update(key_bytes, _value_bytes(bpf_map, value))


def api_map_delete(rt, slot: int, key: int) -> int:
    """``map_delete(map, key) -> i64``."""
    bpf_map = _map_slot(rt, slot)
    key_bytes = (key & ((1 << (bpf_map.key_size * 8)) - 1)).to_bytes(
        bpf_map.key_size, "little")
    return bpf_map.delete(key_bytes)


def api_sk_lookup_tcp(rt, ip: int, port: int):
    """``sk_lookup_tcp(ip, port) -> Option<Socket>``.

    The RAII rewrite of the [35]-buggy helper: the handle owns *every*
    reference the lookup took — including the request-sock reference
    the C helper used to lose — and the trusted destructor drops them
    all, on any exit path."""
    sock = rt.kernel.lookup_socket(ip, port)
    if sock is None:
        return ("none", None)
    holder = rt.holder
    sock.refs.get(holder)
    reqsk = getattr(sock, "pending_reqsk", None)
    took_reqsk = False
    if reqsk is not None and sock.read_field("state") == _TCP_NEW_SYN_RECV:
        reqsk.refs.get(holder)
        took_reqsk = True

    def destroy() -> None:
        sock.refs.put(holder)
        if took_reqsk:
            reqsk.refs.put(holder)

    handle = KernelResource("socket", f"sock@{sock.address:#x}",
                            destroy, payload=sock)
    rt.register_resource(handle)
    return ("some", handle)


def api_spin_lock(rt, slot: int):
    """``spin_lock(map) -> SpinGuard`` — RAII over bpf_spin_lock [48]:
    the unlock is the guard's destructor, so 'released before
    termination on every path' holds by construction."""
    bpf_map = _map_slot(rt, slot)
    if bpf_map.spin_lock is None:
        rt.panic("map has no spin lock")
    bpf_map.spin_lock.lock(rt.holder)

    def destroy() -> None:
        bpf_map.spin_lock.unlock(rt.holder)

    guard = KernelResource("spin_guard", f"lock@map{slot}", destroy,
                           payload=bpf_map.spin_lock)
    rt.register_resource(guard)
    return guard


def api_current_task(rt):
    """``current_task() -> Task`` — a pinned task handle."""
    task = rt.kernel.current_task
    holder = rt.holder
    task.refs.get(holder)
    handle = KernelResource("task", f"task:{task.pid}",
                            lambda: task.refs.put(holder),
                            payload=task)
    rt.register_resource(handle)
    return handle


def api_task_storage_get(rt, task_handle, slot: int):
    """``task_storage_get(&Task, map) -> Option<u64>``.

    The wrap of [42]: the task argument is a *reference to a live
    handle* — a NULL owner pointer is unrepresentable, so the unsafe
    storage code below never sees one."""
    bpf_map = _map_slot(rt, slot)
    task = task_handle.payload
    addr = bpf_map.storage_for(task.address, True)
    if addr is None:
        return ("none", None)
    return ("some", rt.kernel.mem.read_u64(addr, source="kcrate"))


def api_task_storage_set(rt, task_handle, slot: int, value: int) -> int:
    """``task_storage_set(&Task, map, value) -> i64``."""
    bpf_map = _map_slot(rt, slot)
    task = task_handle.payload
    addr = bpf_map.storage_for(task.address, True)
    if addr is None:
        return -12  # -ENOMEM
    rt.kernel.mem.write_u64(addr, _u64(value), source="kcrate")
    return 0


def api_task_stack_sum(rt, task_handle, max_bytes: int):
    """``task_stack_sum(&Task, max) -> Option<u64>``.

    Safe rewrite of ``bpf_get_task_stack`` [34]: the handle pins the
    task, the read is non-faulting, failure is an honest ``None``."""
    task = task_handle.payload
    copy_len = min(max_bytes, task.kernel_stack.size)
    data = rt.kernel.mem.try_read(task.kernel_stack.base, copy_len)
    if data is None:
        return ("none", None)
    return ("some", _u64(sum(data)))


def api_sys_map_update(rt, slot: int, key: int, value: int) -> int:
    """``sys_map_update(map, key, value) -> i64``.

    The sanitizing wrapper over the ``bpf_sys_bpf`` attack surface
    (§3.2, CVE-2022-2785): the attr union is built *here*, in trusted
    code, from values — there is no pointer field an extension could
    leave NULL."""
    bpf_map = _map_slot(rt, slot)
    mem = rt.kernel.mem
    # build a valid attr in kernel memory the wrapper owns
    attr = mem.kmalloc(32, type_name="bpf_attr", owner="kcrate")
    key_buf = mem.kmalloc(bpf_map.key_size, type_name="key",
                          owner="kcrate")
    val_buf = mem.kmalloc(bpf_map.value_size, type_name="val",
                          owner="kcrate")
    try:
        mem.write(key_buf.base,
                  (key & ((1 << (bpf_map.key_size * 8)) - 1)).to_bytes(
                      bpf_map.key_size, "little"))
        mem.write(val_buf.base, _value_bytes(bpf_map, value))
        mem.write(attr.base, bpf_map.map_fd.to_bytes(4, "little"))
        mem.write_u64(attr.base + 8, key_buf.base)
        mem.write_u64(attr.base + 16, val_buf.base)
        # the unsafe core runs with known-valid pointers
        key_bytes = mem.read(key_buf.base, bpf_map.key_size,
                             source="kcrate")
        value_bytes = mem.read(val_buf.base, bpf_map.value_size,
                               source="kcrate")
        return bpf_map.update(key_bytes, value_bytes)
    finally:
        mem.kfree(val_buf)
        mem.kfree(key_buf)
        mem.kfree(attr)


def api_ringbuf_output(rt, slot: int, value: int) -> int:
    """``ringbuf_output(map, value) -> i64``."""
    bpf_map = _map_slot(rt, slot)
    if bpf_map.map_type != "ringbuf":
        return -22
    return bpf_map.output(_u64(value).to_bytes(8, "little"))


def api_ktime_ns(rt) -> int:
    """``ktime_ns() -> u64``."""
    return rt.kernel.clock.now_ns


def api_pid_tgid(rt) -> int:
    """``pid_tgid() -> u64``."""
    task = rt.kernel.current_task
    return _u64((task.tgid << 32) | task.pid)


def api_cpu_id(rt) -> int:
    """``cpu_id() -> u64``."""
    return rt.kernel.current_cpu.cpu_id


def api_prandom(rt) -> int:
    """``prandom() -> u64`` — deterministic in simulation."""
    rt.prandom_state = _u64(rt.prandom_state * 6364136223846793005
                            + 1442695040888963407)
    return rt.prandom_state >> 16


def api_trace(rt, message: str):
    """``trace(msg)`` — write to the kernel log."""
    rt.kernel.log.log(rt.kernel.clock.now_ns,
                      f"safelang[{rt.prog_name}]: {message}")
    return None


def api_vec_new(rt):
    """``vec_new() -> Vec<u64>`` — pool-backed dynamic memory (§4)."""
    vec = VecHandle(rt.pool)
    return vec


# -- ctx methods ----------------------------------------------------------------

def m_ctx_len(rt, ctx) -> int:
    """``ctx.len()``: packet length."""
    return ctx.payload.read_field("len")


def m_ctx_protocol(rt, ctx) -> int:
    """``ctx.protocol()``."""
    return ctx.payload.read_field("protocol")


def _ctx_load(rt, ctx, off: int, size: int):
    skb = ctx.payload
    length = skb.read_field("len")
    if off + size > length:     # the bounds check, in safe code
        return ("none", None)
    raw = rt.kernel.mem.read(skb.data + off, size, source="kcrate")
    return ("some", int.from_bytes(raw, "little"))


def m_ctx_load_u8(rt, ctx, off: int):
    """``ctx.load_u8(off) -> Option<u64>`` (bounds-checked)."""
    return _ctx_load(rt, ctx, off, 1)


def m_ctx_load_u16(rt, ctx, off: int):
    """``ctx.load_u16(off) -> Option<u64>``."""
    return _ctx_load(rt, ctx, off, 2)


def m_ctx_load_u32(rt, ctx, off: int):
    """``ctx.load_u32(off) -> Option<u64>``."""
    return _ctx_load(rt, ctx, off, 4)


def m_ctx_store_u8(rt, ctx, off: int, value: int) -> bool:
    """``ctx.store_u8(off, v) -> bool`` (bounds-checked write)."""
    skb = ctx.payload
    if off + 1 > skb.read_field("len"):
        return False
    rt.kernel.mem.write(skb.data + off, bytes([value & 0xFF]),
                        source="kcrate")
    return True


# -- socket / task methods ----------------------------------------------------------

def m_sock_src_port(rt, handle) -> int:
    """``sock.src_port()``."""
    return handle.payload.read_field("src_port")


def m_sock_dst_port(rt, handle) -> int:
    """``sock.dst_port()``."""
    return handle.payload.read_field("dst_port")


def m_sock_state(rt, handle) -> int:
    """``sock.state()``."""
    return handle.payload.read_field("state")


def m_task_pid(rt, handle) -> int:
    """``task.pid()``."""
    return handle.payload.pid


def m_task_tgid(rt, handle) -> int:
    """``task.tgid()``."""
    return handle.payload.tgid


# -- str methods ----------------------------------------------------------------------

def m_str_len(rt, s: str) -> int:
    """``s.len()``."""
    return len(s)


def m_str_byte_at(rt, s: str, index: int):
    """``s.byte_at(i) -> Option<u64>``."""
    if 0 <= index < len(s):
        return ("some", ord(s[index]) & 0xFF)
    return ("none", None)


def m_str_parse_i64(rt, s: str):
    """``"42".parse_i64() -> Option<i64>`` — retires bpf_strtol."""
    text = s.strip()
    try:
        value = int(text, 10)
    except ValueError:
        return ("none", None)
    if not -(1 << 63) <= value < (1 << 63):
        return ("none", None)
    return ("some", value)


# -- Vec methods ----------------------------------------------------------------------

def m_vec_push(rt, vec: VecHandle, value: int) -> bool:
    """``v.push(x) -> bool`` (False when the pool is spent)."""
    return vec.push(value)


def m_vec_get(rt, vec: VecHandle, index: int):
    """``v.get(i) -> Option<u64>``."""
    got = vec.get(index)
    return ("none", None) if got is None else ("some", got)


def m_vec_set(rt, vec: VecHandle, index: int, value: int) -> bool:
    """``v.set(i, x) -> bool``."""
    return vec.set(index, value)


def m_vec_len(rt, vec: VecHandle) -> int:
    """``v.len()``."""
    return vec.length


def build_api_table() -> ApiTable:
    """The complete kcrate surface."""
    table = ApiTable()
    u = T.U64
    fns = [
        ApiFn("map_lookup", [u, u], T.OptionTy(u), api_map_lookup, 60),
        ApiFn("map_update", [u, u, u], T.I64, api_map_update, 80),
        ApiFn("map_delete", [u, u], T.I64, api_map_delete, 60),
        ApiFn("sk_lookup_tcp", [u, u], T.OptionTy(SOCKET),
              api_sk_lookup_tcp, 200),
        ApiFn("spin_lock", [u], SPIN_GUARD, api_spin_lock, 30),
        ApiFn("current_task", [], TASK, api_current_task, 20),
        ApiFn("task_storage_get", [T.RefTy(TASK), u], T.OptionTy(u),
              api_task_storage_get, 90),
        ApiFn("task_storage_set", [T.RefTy(TASK), u, u], T.I64,
              api_task_storage_set, 90),
        ApiFn("task_stack_sum", [T.RefTy(TASK), u], T.OptionTy(u),
              api_task_stack_sum, 150),
        ApiFn("sys_map_update", [u, u, u], T.I64, api_sys_map_update,
              300),
        ApiFn("ringbuf_output", [u, u], T.I64, api_ringbuf_output, 70),
        ApiFn("ktime_ns", [], u, api_ktime_ns, 10),
        ApiFn("pid_tgid", [], u, api_pid_tgid, 10),
        ApiFn("cpu_id", [], u, api_cpu_id, 5),
        ApiFn("prandom", [], u, api_prandom, 10),
        ApiFn("trace", [T.STR], T.UNIT, api_trace, 100),
        ApiFn("vec_new", [], VEC_U64, api_vec_new, 50),
    ]
    for fn in fns:
        table.add_fn(fn)

    methods = [
        ApiMethod("XdpCtx", "len", [], u, m_ctx_len),
        ApiMethod("XdpCtx", "protocol", [], u, m_ctx_protocol),
        ApiMethod("XdpCtx", "load_u8", [u], T.OptionTy(u),
                  m_ctx_load_u8),
        ApiMethod("XdpCtx", "load_u16", [u], T.OptionTy(u),
                  m_ctx_load_u16),
        ApiMethod("XdpCtx", "load_u32", [u], T.OptionTy(u),
                  m_ctx_load_u32),
        ApiMethod("XdpCtx", "store_u8", [u, u], T.BOOL, m_ctx_store_u8),
        ApiMethod("Socket", "src_port", [], u, m_sock_src_port),
        ApiMethod("Socket", "dst_port", [], u, m_sock_dst_port),
        ApiMethod("Socket", "state", [], u, m_sock_state),
        ApiMethod("Task", "pid", [], u, m_task_pid),
        ApiMethod("Task", "tgid", [], u, m_task_tgid),
        ApiMethod("str", "len", [], u, m_str_len),
        ApiMethod("str", "byte_at", [u], T.OptionTy(u), m_str_byte_at),
        ApiMethod("str", "parse_i64", [], T.OptionTy(T.I64),
                  m_str_parse_i64),
        ApiMethod("Vec", "push", [u], T.BOOL, m_vec_push),
        ApiMethod("Vec", "get", [u], T.OptionTy(u), m_vec_get),
        ApiMethod("Vec", "set", [u, u], T.BOOL, m_vec_set),
        ApiMethod("Vec", "len", [], u, m_vec_len),
    ]
    for method in methods:
        table.add_method(method)
    return table
