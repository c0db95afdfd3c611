"""The eBPF subsystem front end: maps, program loading, execution.

``BpfSubsystem`` is the ``bpf(2)`` surface of the simulated kernel:
create maps, load programs (which runs the in-kernel verifier and then
the JIT — Figure 1's loading pipeline), and run loaded programs on
contexts.  A :class:`VerifierInternalFault` during verification is
converted into a kernel oops attributed to the verifier, modeling the
[54] class of bugs where the verifier itself is the vulnerable
component.

§3's other half is here too: :meth:`BpfSubsystem.certify` is the
trusted toolchain's check and build, and a kernel given a
``trusted_key`` loads a program without running its own verifier or
JIT when a certificate from that key vouches for this exact load and
the artifacts it is handed (see :meth:`load_program`).

A loaded program lives as long as something refers to it: the
caller's :class:`LoadedProgram` handle, a hook attachment, the data
plane's :class:`~repro.net.pipeline.XdpHook` or a prog-array slot.
The subsystem's program table only indexes live programs, so the last
of those references going away frees the program and its artifacts,
as ``bpf_prog_put`` does.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.ebpf.bugs import BugConfig
from repro.ebpf.compile import CompiledProgram
from repro.ebpf.helpers.registry import HelperRegistry, shared_registry
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
from repro.ebpf.progcache import CachedLoad, LoadArtifacts, \
    ProgramLoadCache, certificate_image, fingerprint
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.analyzer import (
    Verifier,
    VerifierConfig,
    VerifierInternalFault,
    VerifierStats,
)
from repro.ebpf.verifier.limits import VerifierLimits
from repro.errors import BpfRuntimeError, KernelOops, VerifierError
from repro.kernel.events import KernelEvent
from repro.kernel.kernel import Kernel

if TYPE_CHECKING:
    from repro.core.signing import SigningKey


def _load_lines(event: KernelEvent) -> Tuple[str, ...]:
    """A load's dmesg lines, rendered from its ``load`` event;
    ``steps`` counts the verification that accepted the bytes, which
    a cache hit did not repeat."""
    name = event.source.split(":", 1)[1]
    checked = "certified" if event.get("certified") \
        else f"verified in {event.get('steps')} steps"
    loaded = (f"bpf: loaded prog {event.get('prog_id')} ({name}) "
              f"type={event.get('prog_type')} insns={event.get('insns')} "
              f"{checked}")
    if not event.get("cache_hit"):
        return (loaded,)
    return (f"bpf: verification cache hit for ({name}), skipping "
            f"verifier", loaded)


def _forget_on_free(table: Dict[int, "weakref.KeyedRef"], live: object):
    """The callback of a program table entry: it drops the freed
    program's id from the table and the program from the kernel's
    live-program gauge ``live``.  It closes over the table and the
    gauge, not the subsystem."""
    def freed(ref: weakref.KeyedRef) -> None:
        # a collection that frees the subsystem with the program may
        # run _orphan first, which clears the table
        table.pop(ref.key, None)
        live.dec()
    return freed


def _orphan(table: Dict[int, "weakref.KeyedRef"], live: object) -> None:
    """A subsystem was collected while programs it loaded are still
    held: each now leaves the gauge through a finalizer of its own."""
    held = [ref() for ref in table.values()]
    table.clear()
    for prog in held:
        if prog is not None:
            weakref.finalize(prog, live.dec)


@dataclass
class LoadedProgram:
    """A verified, JIT-compiled program ready to run.

    This handle is one of the program's references: drop it, and every
    attachment, and the program is freed."""

    prog_id: int
    name: str
    prog_type: ProgType
    insns: List[Insn]
    verifier_stats: VerifierStats
    jit: Optional[JitResult] = None
    #: dispatch table over ``runnable_insns()``, attached at load time
    predecoded: Optional[PredecodedProgram] = None
    #: exec-compiled frame function, attached by the VM when it moves
    #: the program to the compiled tier, or at load when the load
    #: cache already holds one for these bytes
    compiled: Optional[CompiledProgram] = None
    #: entries into the program: top-level runs, data-plane packets
    #: and tail calls into it (the VM's tier rule reads this)
    runs: int = 0
    #: the load-cache entry this program was loaded through, which
    #: receives the VM's compiled artifact
    cache_entry: Optional[CachedLoad] = None

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
                 engine: Optional[str] = None,
                 trusted_key: Optional["SigningKey"] = None) -> None:
        self.kernel = kernel
        self.registry = registry if registry is not None \
            else shared_registry()
        self.bugs = bugs or BugConfig()
        self.limits = limits or VerifierLimits()
        self.use_jit = use_jit
        #: the signer whose load certificates stand in for a verifier
        #: run, a credential like the kernel's builtin keyring; None
        #: trusts no signer
        self.trusted_key = trusted_key
        #: §3's signature-at-load-time model: accepted bytecode is
        #: keyed by content hash so identical reloads skip the
        #: verifier entirely
        self.load_cache: Optional[ProgramLoadCache] = \
            ProgramLoadCache() if use_load_cache else None
        self._maps: Dict[int, BpfMap] = {}
        #: live programs by id, as weak references: the table does not
        #: own them.  CPython's reference count is the program's
        #: refcount, so a program is freed on its last put, and its
        #: entry's callback drops it from here and from the kernel's
        #: live-program gauge: one weak reference per load.  Ids only
        #: grow, so a freed id is never reissued.
        self._progs: Dict[int, weakref.KeyedRef] = {}
        live = kernel.telemetry.live_programs("ebpf")
        self._prog_freed = _forget_on_free(self._progs, live)
        weakref.finalize(self, _orphan, self._progs, live).atexit = False
        self._next_fd = 3
        self._next_prog_id = 1
        #: loads this kernel's own verifier checked, accepted or not
        #: (certified loads and cache hits skip it); only grows, so it
        #: still counts programs freed since
        self.verifier_runs = 0
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
                  trusted_key: Optional["SigningKey"] = None,
                  ) -> "BpfSubsystem":
        """Stamp a subsystem from a kernel's declarative
        :class:`~repro.kernel.spec.KernelSpec` (defaults to the spec
        the kernel itself was booted from) — the subsystem half of
        the fleet's node factory."""
        spec = spec if spec is not None else kernel.spec
        return cls(kernel, registry=registry, bugs=bugs,
                   limits=limits, use_jit=spec.use_jit,
                   use_load_cache=spec.use_load_cache,
                   trusted_key=trusted_key)

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

    def certify(self, insns: Sequence[Insn], prog_type: ProgType,
                ) -> Tuple[str, LoadArtifacts]:
        """The trusted toolchain's check and build (§3.1): verify
        ``insns`` under the default load options, the ones a fleet
        node deploys with, build the JIT output and dispatch table as
        a load does, and return that load's key
        (:func:`~repro.ebpf.progcache.fingerprint`) with the
        artifacts, for a certificate to sign.  Raises
        :class:`~repro.errors.VerifierError` on rejection; registers
        no program and caches nothing."""
        config = self._verifier_config()
        self._verify(insns, prog_type, config)
        artifacts, __, __ = self._build(insns)
        return self._load_key(insns, prog_type, config), artifacts

    def load_program(self, insns: Sequence[Insn], prog_type: ProgType,
                     name: str = "prog", *,
                     allow_ptr_leaks: bool = False,
                     prune_states: bool = True,
                     limits: Optional[VerifierLimits] = None,
                     log_level: int = 1,
                     unprivileged: bool = False,
                     certificate: Optional[str] = None,
                     artifacts: Optional[LoadArtifacts] = None,
                     ) -> LoadedProgram:
        """Verify and JIT a program.  Raises
        :class:`~repro.errors.VerifierError` on rejection and
        :class:`~repro.errors.KernelOops` if the verifier itself
        crashes (the [54] bug class).

        ``unprivileged=True`` models a non-root loader: refused
        outright while ``unprivileged_bpf_disabled`` is set (the [22]
        default), and otherwise verified under the tighter caps with
        pointer leaks always forbidden.

        ``certificate`` and ``artifacts`` are §3's load by signature.
        On a load-cache miss the program runs on the ``artifacts`` it
        is handed, with no verifier, JIT or predecode here, only when
        ``trusted_key`` signed the certificate over this load's own key
        (the bytes, program type, limits, bug config, JIT flag and map
        shapes) plus the digest of those artifacts, re-hashed here.
        Any other certificate or artifacts, or none, and the kernel
        verifies and builds the program itself.  The stats of a
        certified load have zero counters and ``certified`` set, and
        its cache entry is this kernel's own, pointing at the shared
        artifacts.

        With recovery enabled the trip is supervised: transient
        injected load errnos are retried with backoff, and a verifier
        crash is contained (scoped taint cleared) and surfaced as a
        plain :class:`~repro.errors.VerifierError` rejection."""
        supervisor = self.kernel.recovery
        if supervisor is not None:
            return supervisor.load_ebpf(
                self, name,
                lambda: self._load_program_raw(
                    insns, prog_type, name,
                    allow_ptr_leaks=allow_ptr_leaks,
                    prune_states=prune_states, limits=limits,
                    log_level=log_level, unprivileged=unprivileged,
                    certificate=certificate, artifacts=artifacts))
        return self._load_program_raw(
            insns, prog_type, name, allow_ptr_leaks=allow_ptr_leaks,
            prune_states=prune_states, limits=limits,
            log_level=log_level, unprivileged=unprivileged,
            certificate=certificate, artifacts=artifacts)

    def _verifier_config(self, allow_ptr_leaks: bool = False,
                         prune_states: bool = True,
                         limits: Optional[VerifierLimits] = None,
                         log_level: int = 1) -> VerifierConfig:
        """The verifier configuration of one load request."""
        return VerifierConfig(
            limits=limits or self.limits,
            bugs=self.bugs,
            allow_ptr_leaks=allow_ptr_leaks,
            prune_states=prune_states,
            log_level=log_level,
        )

    def _load_key(self, insns: Sequence[Insn], prog_type: ProgType,
                  config: VerifierConfig) -> str:
        """The load-cache key of one load request, which is also what
        a load certificate binds."""
        return fingerprint(insns, prog_type, config, self._maps.items(),
                           self.use_jit)

    def _build(self, insns: Sequence[Insn],
               ) -> Tuple[LoadArtifacts, int, int]:
        """JIT and predecode an accepted program: its artifacts, and
        the JIT and predecode wall times in ns."""
        stage_start = time.perf_counter()
        jit = jit_compile(insns, self.bugs) if self.use_jit else None
        jit_done = time.perf_counter()
        decoded = predecode(jit.insns if jit is not None
                            else list(insns))
        predecode_ns = int((time.perf_counter() - jit_done) * 1e9)
        return (LoadArtifacts(jit, decoded),
                int((jit_done - stage_start) * 1e9), predecode_ns)

    def _verify(self, insns: Sequence[Insn], prog_type: ProgType,
                config: VerifierConfig) -> VerifierStats:
        """Run the verifier; a crash inside it becomes an oops
        attributed to the verifier."""
        verifier = Verifier(insns, prog_type, self.registry, self._maps,
                            config)
        try:
            return verifier.verify()
        except VerifierInternalFault as fault:
            self.kernel.log.record_oops(
                self.kernel.clock.now_ns, str(fault),
                category="use-after-free", source="verifier")
            raise KernelOops(str(fault), source="verifier") from fault

    def _load_program_raw(self, insns: Sequence[Insn],
                          prog_type: ProgType, name: str = "prog", *,
                          allow_ptr_leaks: bool = False,
                          prune_states: bool = True,
                          limits: Optional[VerifierLimits] = None,
                          log_level: int = 1,
                          unprivileged: bool = False,
                          certificate: Optional[str] = None,
                          artifacts: Optional[LoadArtifacts] = None,
                          ) -> LoadedProgram:
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
        config = self._verifier_config(allow_ptr_leaks, prune_states,
                                       limits, log_level)
        cache = self.load_cache
        trusted = certificate is not None and artifacts is not None \
            and self.trusted_key is not None
        cache_key: Optional[str] = None
        cached: Optional[CachedLoad] = None
        if cache is not None or trusted:
            cache_key = self._load_key(insns, prog_type, config)
        if cache is not None:
            cached = cache.lookup(cache_key)
        jit_ns = 0
        predecode_ns = 0
        entry = cached
        if cached is not None:
            # §3's signature check: the bytes were accepted before
            # under this exact configuration — replay the artifacts
            stats = cached.stats_copy()
            built = cached.artifacts
        else:
            if trusted and self.trusted_key.verify(
                    certificate_image(cache_key, artifacts.digest()),
                    certificate):
                # §3.1's load by signature: the trusted toolchain
                # verified this exact request and built these exact
                # artifacts, so neither runs again here
                stats = VerifierStats(certified=True)
                built = artifacts
            else:
                self.verifier_runs += 1
                stats = self._verify(insns, prog_type, config)
                built, jit_ns, predecode_ns = self._build(insns)
            if cache is not None:
                entry = CachedLoad(stats, built, None)
                cache.insert(cache_key, entry)
        prog = LoadedProgram(
            prog_id=self._next_prog_id, name=name, prog_type=prog_type,
            insns=list(insns), verifier_stats=stats, jit=built.jit,
            predecoded=built.predecoded,
            compiled=entry.compiled if entry is not None else None,
            cache_entry=entry)
        self._next_prog_id += 1
        self._progs[prog.prog_id] = weakref.KeyedRef(
            prog, self._prog_freed, prog.prog_id)
        hit = cached is not None
        self.kernel.telemetry.record_load(
            "ebpf", name, prog_id=prog.prog_id,
            cache_hit=hit,
            verify_ns=0 if hit else int(stats.wall_time_s * 1e9),
            jit_ns=jit_ns, predecode_ns=predecode_ns,
            insns=len(prog.insns),
            insns_processed=0 if hit else stats.insns_processed,
            states_explored=0 if hit else stats.states_explored,
            dmesg=_load_lines, prog_type=prog_type.value,
            certified=stats.certified, steps=stats.insns_processed)
        return prog

    # -- program management -------------------------------------------------------

    def prog_by_id(self, prog_id: int) -> Optional[LoadedProgram]:
        """Resolve a live program id (None once the program is freed)."""
        ref = self._progs.get(prog_id)
        return ref() if ref is not None else None

    def all_progs(self) -> List[LoadedProgram]:
        """Every live program, in load order."""
        progs = (ref() for __, ref in sorted(self._progs.items()))
        return [prog for prog in progs if prog is not None]

    # -- execution ---------------------------------------------------------------

    def _dispatch(self, prog: LoadedProgram, ctx_addr: int) -> int:
        """One program invocation, supervised when recovery is on.

        The unsupervised path pays exactly one attribute test over the
        bare ``vm.run`` — this is the hot path the benchmarks drive."""
        supervisor = self.kernel.recovery
        if supervisor is None:
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
