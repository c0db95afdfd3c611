"""The :class:`Kernel` aggregate: one simulated kernel instance.

Both extension frameworks — the modeled eBPF subsystem and the paper's
proposed SafeLang framework — execute against a ``Kernel``.  It wires
the subsystems together (memory faults flow into the oops path, RCU
stall detection hangs off the virtual clock) and exposes the object
population (tasks, sockets) that helper functions operate on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import KernelSafetyViolation, MemoryFault
from repro.faultinject.plane import FaultPlane
from repro.kernel.cpu import Cpu
from repro.kernel.events import EventBus
from repro.kernel.ktime import VirtualClock
from repro.kernel.spec import KernelSpec
from repro.kernel.locks import LockRegistry
from repro.kernel.memory import KernelAddressSpace
from repro.kernel.objects import RequestSock, SkBuff, Sock, TaskStruct
from repro.kernel.panic import KernelLog
from repro.kernel.rcu import RcuSubsystem
from repro.kernel.refcount import RefcountRegistry
from repro.telemetry import Telemetry

#: virtual nanoseconds charged per executed extension instruction
NSEC_PER_INSN = 1


class Kernel:
    """One booted instance of the simulated kernel."""

    def __init__(self, nr_cpus: int = 4,
                 spec: Optional[KernelSpec] = None) -> None:
        """Boot a kernel.  The legacy ``nr_cpus`` is a thin shim over
        :class:`~repro.kernel.spec.KernelSpec`: it is folded into one
        (``spec`` wins when both are given) and the spec's
        post-boot fields — stats toggle, supervisor, fault schedule —
        are applied last, exactly as :meth:`from_spec` would."""
        if spec is None:
            spec = KernelSpec(nr_cpus=nr_cpus)
        #: the declarative config this kernel was stamped from
        self.spec = spec
        self.clock = VirtualClock()
        #: the kernel's one record of what happened (the log and the
        #: telemetry trace are views of it); fleet orchestrators
        #: observe the kernel exclusively through it
        self.events = EventBus(clock=self.clock)
        self.log = KernelLog(self.events)
        #: the shared observability hub; ``telemetry.stats_enabled``
        #: models the ``kernel.bpf_stats_enabled`` sysctl
        self.telemetry = Telemetry(self.events)
        #: the fault-injection plane; disabled (one bool test) unless
        #: a chaos experiment arms it
        self.faults = FaultPlane(clock=self.clock,
                                 telemetry=self.telemetry)
        self.mem = KernelAddressSpace()
        self.mem.fault_hook = self._on_memory_fault
        self.rcu = RcuSubsystem(self.clock, self.log)
        self.rcu.faults = self.faults
        self.rcu.kernel = self
        # locks created through the registry report violations through
        # the official oops path (recovery sees them like any fault)
        self.locks = LockRegistry(log=self.log, clock=self.clock,
                                  kernel=self)
        #: the recovery supervisor, once :meth:`enable_recovery` ran;
        #: None keeps every dispatch path on its zero-cost fast path
        self.recovery: Optional[object] = None
        self.refs = RefcountRegistry()
        self.cpus = [Cpu(i) for i in range(spec.nr_cpus)]
        self._current_cpu = 0
        #: the deterministic SMP scheduler while a run is active (see
        #: :mod:`repro.kernel.smp`); None keeps every yield-point hook
        #: on its one-attribute-test fast path
        self.smp: Optional[object] = None

        self.tasks: List[TaskStruct] = []
        self.sockets: List[Sock] = []
        self.request_socks: List[RequestSock] = []
        self._next_pid = 100

        # the init task; extensions observe it as "current"
        self.current_task = self.create_task(comm="init", pid=1)
        self.log.log(0, "Linux version 5.18.0-repro (simulated)")

        # attachment points (built lazily to avoid an import cycle)
        self._hooks = None

        # declarative post-boot configuration (stats / recovery /
        # fault schedule) comes last: it needs the subsystems above
        spec.configure(self)

    @classmethod
    def from_spec(cls, spec: KernelSpec) -> "Kernel":
        """Stamp one kernel from a declarative spec — the fleet's
        node factory.  Equal specs yield identically-configured
        kernels (module defaults aside), which is what makes a
        rollout wave uniform."""
        return cls(spec=spec)

    @property
    def hooks(self) -> "object":
        """The kernel's attachment points (see
        :mod:`repro.kernel.hooks`)."""
        if self._hooks is None:
            from repro.kernel.hooks import HookManager
            self._hooks = HookManager(self)
        return self._hooks

    # -- subsystem access ---------------------------------------------------

    @property
    def current_cpu(self) -> Cpu:
        """The CPU the simulation is currently executing on."""
        return self.cpus[self._current_cpu]

    def set_current_cpu(self, cpu_id: int) -> None:
        """Migrate the simulation to another CPU."""
        if not 0 <= cpu_id < len(self.cpus):
            raise ValueError(f"no such cpu {cpu_id}")
        self._current_cpu = cpu_id

    @property
    def healthy(self) -> bool:
        """False while the kernel carries an uncontained oops (or has
        panicked for good)."""
        return not self.log.tainted

    def check_alive(self) -> bool:
        """The liveness check the chaos harness runs after recovery:
        raises :class:`~repro.errors.KernelSafetyViolation` if the
        kernel has panicked or holds an open oops (naming the newest);
        returns True otherwise.  Contained oopses — unwound and
        audited by the recovery supervisor — do not count."""
        if self.log.panicked:
            raise KernelSafetyViolation(
                f"kernel panicked: {self.log.panic_reason}",
                source="kernel")
        if self.log.open_oopses:
            oops = self.log.open_oopses[-1]
            raise KernelSafetyViolation(
                f"kernel is tainted: {oops.category}: {oops.reason}",
                source=oops.source)
        return True

    # -- recovery -----------------------------------------------------------

    def enable_recovery(self, policy: Optional[object] = None) -> object:
        """Attach the fault-containment supervisor (idempotent).

        Both extension frameworks consult ``kernel.recovery`` on their
        dispatch paths; while it is None (the default) the only cost is
        one attribute test."""
        if self.recovery is None:
            from repro.recovery import Supervisor
            self.recovery = Supervisor(self, policy=policy)
        return self.recovery

    def soft_reset(self, sources, reason: str,
                   breakers: bool = True) -> int:
        """Clear the taint attributed to ``sources`` after their fault
        domains were unwound — the scoped replacement for a reboot.
        Returns how many oopses were marked contained.

        With ``breakers`` (the default) the supervisor's circuit
        breakers for those sources are reset too — half-open trial
        flags, consecutive-quarantine backoff, the release window —
        so a node rolled back to a prior release re-enters HEALTHY
        cleanly instead of inheriting the bad release's open breaker.
        The supervisor's own containment path passes ``False``: mid-
        containment the breaker state *is* the health signal and the
        supervisor manages it itself."""
        cleared = self.log.mark_contained(
            sources, self.clock.now_ns, reason)
        if breakers and self.recovery is not None:
            self.recovery.reset_breakers(sources, reason=reason)
        self.events.publish(
            "soft-reset", source="kernel", reason=reason,
            cleared=cleared, breakers=breakers,
            sources=tuple(sorted(sources)) if not isinstance(
                sources, str) else (sources,))
        return cleared

    # -- time / work accounting ---------------------------------------------

    def work(self, instructions: int) -> None:
        """Charge virtual time for executed extension instructions.

        This is what arms the RCU stall detector and watchdogs against
        long-running extensions: every instruction advances the clock.
        """
        self.clock.advance(instructions * NSEC_PER_INSN)

    # -- object population --------------------------------------------------

    def create_task(self, comm: str = "task",
                    pid: Optional[int] = None) -> TaskStruct:
        """Spawn a task."""
        if pid is None:
            pid = self._next_pid
            self._next_pid += 1
        task = TaskStruct(self.mem, self.refs, pid=pid, comm=comm)
        self.tasks.append(task)
        return task

    def create_socket(self, src_ip: int = 0x7F000001, src_port: int = 0,
                      dst_ip: int = 0, dst_port: int = 0) -> Sock:
        """Open a (simulated) TCP socket."""
        sock = Sock(self.mem, self.refs, src_ip=src_ip, src_port=src_port,
                    dst_ip=dst_ip, dst_port=dst_port)
        self.sockets.append(sock)
        return sock

    def create_request_sock(self, name: str) -> RequestSock:
        """Create a connection-request mini-socket."""
        reqsk = RequestSock(self.mem, self.refs, name)
        self.request_socks.append(reqsk)
        return reqsk

    def create_skb(self, payload: bytes, protocol: int = 0x0800) -> SkBuff:
        """Build a socket buffer carrying ``payload``."""
        return SkBuff(self.mem, payload, protocol=protocol)

    def lookup_socket(self, dst_ip: int, dst_port: int) -> Optional[Sock]:
        """Socket lookup by destination tuple (``sk_lookup`` model)."""
        for sock in self.sockets:
            if (sock.read_field("src_ip") == dst_ip
                    and sock.read_field("src_port") == dst_port):
                return sock
        return None

    def task_by_pid(self, pid: int) -> Optional[TaskStruct]:
        """Find a task by pid."""
        for task in self.tasks:
            if task.pid == pid:
                return task
        return None

    # -- fault plumbing ------------------------------------------------------

    def _on_memory_fault(self, fault: MemoryFault) -> None:
        """Route a detected memory fault into the oops path."""
        self.log.record_oops(
            self.clock.now_ns, str(fault),
            category=fault.category, source=fault.source)
