"""The eBPF subsystem front end: maps, program loading, execution.

``BpfSubsystem`` is the ``bpf(2)`` surface of the simulated kernel:
create maps, load programs (which runs the in-kernel verifier and then
the JIT — Figure 1's loading pipeline), and run loaded programs on
contexts.  A :class:`VerifierInternalFault` during verification is
converted into a kernel oops attributed to the verifier, modeling the
[54] class of bugs where the verifier itself is the vulnerable
component.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ebpf.bugs import BugConfig
from repro.ebpf.compile import CompiledProgram, compile_program
from repro.ebpf.engine import EngineLike, resolve_engine
from repro.ebpf.helpers.registry import HelperRegistry, \
    build_default_registry
from repro.ebpf.interpreter import BpfVm
from repro.ebpf.isa import Insn
from repro.ebpf.jit import JitResult, jit_compile
from repro.ebpf.maps import (
    ArrayMap,
    BpfMap,
    DevMap,
    HashMap,
    PercpuArrayMap,
    PercpuHashMap,
    PerfEventArrayMap,
    ProgArrayMap,
    RingBufMap,
    TaskStorageMap,
)
from repro.ebpf.predecode import PredecodedProgram, predecode
from repro.ebpf.progcache import CachedLoad, ProgramLoadCache, \
    fingerprint
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.analyzer import (
    Verifier,
    VerifierConfig,
    VerifierInternalFault,
    VerifierStats,
)
from repro.ebpf.verifier.limits import VerifierLimits
from repro.errors import BpfRuntimeError, KernelOops, VerifierError
from repro.kernel.kernel import Kernel


@dataclass
class LoadedProgram:
    """A verified, JIT-compiled program ready to run."""

    prog_id: int
    name: str
    prog_type: ProgType
    insns: List[Insn]
    verifier_stats: VerifierStats
    jit: Optional[JitResult] = None
    #: dispatch table over ``runnable_insns()``, attached at load time
    predecoded: Optional[PredecodedProgram] = None
    #: exec-compiled frame function (compiled tier), attached at load
    #: time when the subsystem's engine is ``compiled``
    compiled: Optional[CompiledProgram] = None
    #: per-program engine override; ``None`` follows the VM default
    engine: Optional[str] = None

    def runnable_insns(self) -> List[Insn]:
        """What the CPU actually executes: JIT output when present."""
        return self.jit.insns if self.jit is not None else self.insns


class BpfSubsystem:
    """One kernel's eBPF subsystem."""

    def __init__(self, kernel: Kernel,
                 registry: Optional[HelperRegistry] = None,
                 bugs: Optional[BugConfig] = None,
                 limits: Optional[VerifierLimits] = None,
                 use_jit: bool = True,
                 use_load_cache: bool = True,
                 engine: EngineLike = None) -> None:
        self.kernel = kernel
        self.registry = registry or build_default_registry()
        self.bugs = bugs or BugConfig()
        self.limits = limits or VerifierLimits()
        self.use_jit = use_jit
        #: compiled-tier artifact reuse across loads of the same bytes
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0
        #: §3's signature-at-load-time model: accepted bytecode is
        #: keyed by content hash so identical reloads skip the
        #: verifier entirely
        self.load_cache: Optional[ProgramLoadCache] = \
            ProgramLoadCache() if use_load_cache else None
        self._maps: Dict[int, BpfMap] = {}
        self._progs: Dict[int, LoadedProgram] = {}
        self._next_fd = 3
        self._next_prog_id = 1
        self.vm = BpfVm(kernel, self, self.bugs, engine=engine)
        #: the [22] sysctl: the kernel community's response to
        #: verifier distrust was to disallow unprivileged loading
        #: entirely — on by default since 2021
        self.unprivileged_bpf_disabled = True

    @classmethod
    def from_spec(cls, kernel: Kernel, spec: "object" = None,
                  registry: Optional[HelperRegistry] = None,
                  bugs: Optional[BugConfig] = None,
                  limits: Optional[VerifierLimits] = None,
                  ) -> "BpfSubsystem":
        """Stamp a subsystem from a kernel's declarative
        :class:`~repro.kernel.spec.KernelSpec` (defaults to the spec
        the kernel itself was booted from) — the subsystem half of
        the fleet's node factory."""
        spec = spec if spec is not None else kernel.spec
        return cls(kernel, registry=registry, bugs=bugs,
                   limits=limits, use_jit=spec.use_jit,
                   use_load_cache=spec.use_load_cache,
                   engine=spec.engine)

    # -- maps -----------------------------------------------------------------

    def create_map(self, map_type: str, *, key_size: int = 4,
                   value_size: int = 8, max_entries: int = 16,
                   with_spin_lock: bool = False) -> BpfMap:
        """Create a map of the given type and return it (fd assigned)."""
        map_fd = self._next_fd
        self._next_fd += 1
        if map_type == "array":
            bpf_map: BpfMap = ArrayMap(self.kernel, map_fd, key_size,
                                       value_size, max_entries,
                                       bugs=self.bugs)
        elif map_type == "percpu_array":
            bpf_map = PercpuArrayMap(self.kernel, map_fd, key_size,
                                     value_size, max_entries)
        elif map_type == "hash":
            bpf_map = HashMap(self.kernel, map_fd, key_size, value_size,
                              max_entries)
        elif map_type == "percpu_hash":
            bpf_map = PercpuHashMap(self.kernel, map_fd, key_size,
                                    value_size, max_entries)
        elif map_type == "ringbuf":
            bpf_map = RingBufMap(self.kernel, map_fd, max_entries)
        elif map_type == "perf_event_array":
            bpf_map = PerfEventArrayMap(self.kernel, map_fd,
                                        max_entries)
        elif map_type == "task_storage":
            bpf_map = TaskStorageMap(self.kernel, map_fd, value_size)
        elif map_type == "prog_array":
            bpf_map = ProgArrayMap(self.kernel, map_fd, max_entries)
        elif map_type == "devmap":
            bpf_map = DevMap(self.kernel, map_fd, max_entries)
        else:
            raise BpfRuntimeError(f"unknown map type {map_type!r}")
        if with_spin_lock:
            bpf_map.add_spin_lock()
        self._maps[map_fd] = bpf_map
        self.kernel.telemetry.record_map_created(bpf_map.map_type,
                                                 map_fd)
        return bpf_map

    def map_by_fd(self, map_fd: int) -> Optional[BpfMap]:
        """Resolve a map fd."""
        return self._maps.get(map_fd)

    def all_maps(self) -> List[BpfMap]:
        """Every live map."""
        return list(self._maps.values())

    def destroy_map(self, map_fd: int) -> None:
        """Tear a map down (close its last fd): release every backing
        kernel allocation, including outstanding ringbuf reservations."""
        bpf_map = self._maps.pop(map_fd, None)
        if bpf_map is None:
            raise BpfRuntimeError(f"no map with fd {map_fd}")
        bpf_map.destroy()
        self.kernel.telemetry.record_map_destroyed(bpf_map.map_type,
                                                   map_fd)

    def shutdown(self) -> None:
        """Tear down every live map (subsystem teardown)."""
        for map_fd in list(self._maps):
            self.destroy_map(map_fd)

    # -- program loading (Figure 1: verifier -> JIT) ----------------------------

    def load_program(self, insns: Sequence[Insn], prog_type: ProgType,
                     name: str = "prog", *,
                     allow_ptr_leaks: bool = False,
                     prune_states: bool = True,
                     limits: Optional[VerifierLimits] = None,
                     log_level: int = 1,
                     unprivileged: bool = False) -> LoadedProgram:
        """Verify and JIT a program.  Raises
        :class:`~repro.errors.VerifierError` on rejection and
        :class:`~repro.errors.KernelOops` if the verifier itself
        crashes (the [54] bug class).

        ``unprivileged=True`` models a non-root loader: refused
        outright while ``unprivileged_bpf_disabled`` is set (the [22]
        default), and otherwise verified under the tighter caps with
        pointer leaks always forbidden.

        With recovery enabled the trip is supervised: transient
        injected load errnos are retried with backoff, and a verifier
        crash is contained (scoped taint cleared) and surfaced as a
        plain :class:`~repro.errors.VerifierError` rejection."""
        supervisor = self.kernel.recovery
        if supervisor is not None and supervisor.active:
            return supervisor.load_ebpf(
                self, name,
                lambda: self._load_program_raw(
                    insns, prog_type, name,
                    allow_ptr_leaks=allow_ptr_leaks,
                    prune_states=prune_states, limits=limits,
                    log_level=log_level, unprivileged=unprivileged))
        return self._load_program_raw(
            insns, prog_type, name, allow_ptr_leaks=allow_ptr_leaks,
            prune_states=prune_states, limits=limits,
            log_level=log_level, unprivileged=unprivileged)

    def _load_program_raw(self, insns: Sequence[Insn],
                          prog_type: ProgType, name: str = "prog", *,
                          allow_ptr_leaks: bool = False,
                          prune_states: bool = True,
                          limits: Optional[VerifierLimits] = None,
                          log_level: int = 1,
                          unprivileged: bool = False) -> LoadedProgram:
        faults = self.kernel.faults
        if faults.armed:
            fault = faults.check("load.verify")
            if fault is not None and fault.kind != "delay":
                if fault.kind == "panic":
                    # the [54] bug class on demand: the verifier
                    # itself crashes while processing the program
                    self.kernel.log.record_oops(
                        self.kernel.clock.now_ns,
                        f"injected verifier fault loading ({name})",
                        category="fault-injection", source="verifier")
                    raise KernelOops(
                        f"injected verifier fault loading ({name})",
                        source="verifier")
                raise VerifierError(
                    f"injected load failure (errno {fault.errno}) "
                    f"for ({name})")
        if unprivileged:
            if self.unprivileged_bpf_disabled:
                raise VerifierError(
                    "unprivileged BPF is disabled "
                    "(kernel.unprivileged_bpf_disabled=1, see [22])")
            allow_ptr_leaks = False
            limits = limits or VerifierLimits.unprivileged()
        config = VerifierConfig(
            limits=limits or self.limits,
            bugs=self.bugs,
            allow_ptr_leaks=allow_ptr_leaks,
            prune_states=prune_states,
            log_level=log_level,
        )
        cache = self.load_cache
        cache_key: Optional[str] = None
        cached: Optional[CachedLoad] = None
        if cache is not None:
            cache_key = fingerprint(insns, prog_type, config,
                                    self._maps.items(), self.use_jit)
            cached = cache.lookup(cache_key)
        jit_ns = 0
        predecode_ns = 0
        compile_ns = 0
        compiled: Optional[CompiledProgram] = None
        if cached is not None:
            # §3's signature check: the bytes were accepted before
            # under this exact configuration — replay the artifacts
            stats = cached.stats_copy()
            jit = cached.jit
            decoded = cached.predecoded
            if self.vm.engine == "compiled":
                compiled = cached.compiled
                if compiled is None:
                    # first compiled-tier load of bytes cached under
                    # another engine: compile once, backfill the entry
                    stage_start = time.perf_counter()
                    compiled = compile_program(decoded)
                    compile_ns = int(
                        (time.perf_counter() - stage_start) * 1e9)
                    cached.compiled = compiled
                    self.compile_cache_misses += 1
                else:
                    self.compile_cache_hits += 1
            self.kernel.log.log(
                self.kernel.clock.now_ns,
                f"bpf: verification cache hit for ({name}), "
                f"skipping verifier")
        else:
            verifier = Verifier(insns, prog_type, self.registry,
                                self._maps, config)
            try:
                stats = verifier.verify()
            except VerifierInternalFault as fault:
                self.kernel.log.record_oops(
                    self.kernel.clock.now_ns, str(fault),
                    category="use-after-free", source="verifier")
                raise KernelOops(str(fault),
                                 source="verifier") from fault
            stage_start = time.perf_counter()
            jit = jit_compile(insns, self.bugs) if self.use_jit \
                else None
            jit_done = time.perf_counter()
            decoded = predecode(jit.insns if jit is not None
                                else list(insns))
            predecode_ns = int((time.perf_counter() - jit_done) * 1e9)
            jit_ns = int((jit_done - stage_start) * 1e9)
            if self.vm.engine == "compiled":
                stage_start = time.perf_counter()
                compiled = compile_program(decoded)
                compile_ns = int(
                    (time.perf_counter() - stage_start) * 1e9)
                self.compile_cache_misses += 1
            if cache is not None and cache_key is not None:
                cache.insert(cache_key,
                             CachedLoad(stats, jit, decoded, compiled))
        prog = LoadedProgram(
            prog_id=self._next_prog_id, name=name, prog_type=prog_type,
            insns=list(insns), verifier_stats=stats, jit=jit,
            predecoded=decoded, compiled=compiled)
        self._next_prog_id += 1
        self._progs[prog.prog_id] = prog
        self.kernel.telemetry.record_load(
            "ebpf", name, prog_id=prog.prog_id,
            cache_hit=cached is not None,
            verify_ns=0 if cached is not None
            else int(stats.wall_time_s * 1e9),
            jit_ns=jit_ns, predecode_ns=predecode_ns,
            compile_ns=compile_ns,
            insns=len(prog.insns),
            insns_processed=0 if cached is not None
            else stats.insns_processed,
            states_explored=0 if cached is not None
            else stats.states_explored)
        self.kernel.log.log(
            self.kernel.clock.now_ns,
            f"bpf: loaded prog {prog.prog_id} ({name}) "
            f"type={prog_type.value} insns={len(prog.insns)} "
            f"verified in {stats.insns_processed} steps")
        self.kernel.events.publish(
            "load", source=f"bpf:{name}", prog_id=prog.prog_id,
            prog_type=prog_type.value, insns=len(prog.insns),
            cache_hit=cached is not None)
        return prog

    # -- program management -------------------------------------------------------

    def prog_by_id(self, prog_id: int) -> Optional[LoadedProgram]:
        """Resolve a loaded program id."""
        return self._progs.get(prog_id)

    def all_progs(self) -> List[LoadedProgram]:
        """Every loaded program, in load order."""
        return [self._progs[pid] for pid in sorted(self._progs)]

    def set_engine(self, prog: LoadedProgram,
                   engine: EngineLike) -> None:
        """Pin a program to an execution tier (``None`` clears the
        override and the program follows the VM default again).
        Pinning ``compiled`` compiles eagerly so the cost lands at
        configuration time, not on the next invocation."""
        try:
            engine = resolve_engine(engine)
        except ValueError as error:
            raise BpfRuntimeError(str(error)) from None
        prog.engine = engine
        if engine == "compiled" and prog.compiled is None:
            decoded = prog.predecoded
            if decoded is None:
                decoded = predecode(prog.runnable_insns())
                prog.predecoded = decoded
            prog.compiled = compile_program(decoded)
            self.compile_cache_misses += 1

    # -- execution ---------------------------------------------------------------

    def _dispatch(self, prog: LoadedProgram, ctx_addr: int) -> int:
        """One program invocation, supervised when recovery is on.

        The unsupervised path pays exactly one attribute test over the
        bare ``vm.run`` — this is the hot path the benchmarks drive."""
        supervisor = self.kernel.recovery
        if supervisor is None or not supervisor.active:
            return self.vm.run(prog, ctx_addr)
        return supervisor.run_ebpf(
            self, prog, lambda: self.vm.run(prog, ctx_addr))

    def run(self, prog: LoadedProgram, ctx_addr: int) -> int:
        """Run a program on a raw context address."""
        return self._dispatch(prog, ctx_addr)

    def run_on_packet(self, prog: LoadedProgram,
                      payload: bytes) -> int:
        """Build an skb for ``payload`` and run (XDP/socket filter);
        the skb is freed once the verdict is known."""
        skb = self.kernel.create_skb(payload)
        try:
            return self._dispatch(prog, skb.address)
        finally:
            skb.free()

    def run_on_current_task(self, prog: LoadedProgram) -> int:
        """Run a tracing program against a pt_regs-like context,
        freed once the program returns."""
        regs = self.kernel.mem.kmalloc(64, type_name="pt_regs",
                                       owner="trace")
        try:
            return self._dispatch(prog, regs.base)
        finally:
            self.kernel.mem.kfree(regs)

    # -- attachment points --------------------------------------------------------

    def attach_xdp(self, prog: LoadedProgram,
                   priority: int = 0) -> None:
        """Attach a program to the kernel's XDP hook chain."""
        self.kernel.hooks.attach(
            "xdp", f"bpf:{prog.name}",
            lambda skb: self._dispatch(prog, skb.address),
            priority=priority)

    def attach_nic(self, prog: LoadedProgram, plane: "object",
                   nic: "object") -> "object":
        """Attach an XDP program to a simulated NIC through the data
        plane; returns the live :class:`~repro.net.pipeline.XdpHook`.
        Rejects non-XDP program types."""
        # imported here: net sits above ebpf in the layering
        from repro.net.pipeline import XdpHook

        return XdpHook(self, plane, prog, nic)

    def attach_trace(self, prog: LoadedProgram,
                     priority: int = 0) -> None:
        """Attach a program to the tracing hook."""
        self.kernel.hooks.attach(
            "trace", f"bpf:{prog.name}",
            lambda __: self.run_on_current_task(prog),
            priority=priority)
