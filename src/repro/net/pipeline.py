"""The batched XDP pipeline: poll RX queues, run the program, route
verdicts.

The :class:`DataPlane` is the driver side of the simulated network
stack.  A poll visits each per-CPU RX queue of each NIC, pins the
kernel to that queue's CPU, and burns through a burst of packets
inside one :meth:`~repro.ebpf.interpreter.BpfVm.batch_runner` critical
section — RCU read lock, preempt-off and engine binding are paid once
per burst, so the per-packet cost on the compiled tier is the frame
fill, the generated frame function, and the verdict routing.  That is
the NAPI shape: interrupts arrive as :meth:`SimulatedNic.receive`,
polls do the work.

Verdict semantics (Linux's, scaled to the model):

* ``XDP_DROP`` / ``XDP_ABORTED`` — packet gone; both are counted per
  NIC per verdict, aborted separately because it means "program
  misbehaved", not "policy said no".
* ``XDP_PASS`` — the packet's (possibly rewritten) bytes are
  delivered to userspace through the polling CPU's ring buffer; a
  full ring counts exact per-record drops
  (:meth:`~repro.ebpf.maps.RingBufMap.output_batch`).
* ``XDP_TX`` — bounced back out the receiving NIC.
* ``XDP_REDIRECT`` — the target ifindex stashed by
  ``bpf_redirect_map`` is resolved against the plane's device table
  *after* the program returns (``xdp_do_redirect`` style); a missing
  device — or an armed ``net.redirect`` failpoint — counts a
  ``redirect_gone`` drop.

Clock accounting: program execution advances the virtual clock
identically on every engine (the differential suites pin this), and
the pipeline itself adds none, so per-packet latency — verdict time
minus the packet's NIC-receive timestamp — is engine-invariant, and
so are the histograms built from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ebpf.loader import BpfSubsystem, LoadedProgram
from repro.ebpf.maps import RingBufMap
from repro.errors import BpfRuntimeError
from repro.kernel.kernel import Kernel
from repro.net.nic import RxQueue, SimulatedNic

XDP_ABORTED = 0
XDP_DROP = 1
XDP_PASS = 2
XDP_TX = 3
XDP_REDIRECT = 4

VERDICT_NAMES = {
    XDP_ABORTED: "aborted",
    XDP_DROP: "drop",
    XDP_PASS: "pass",
    XDP_TX: "tx",
    XDP_REDIRECT: "redirect",
}

#: default per-poll burst per queue (NAPI_POLL_WEIGHT)
DEFAULT_BATCH = 64


def _check_burst(batch_size: int) -> None:
    """Refuse a burst that takes no packet: polling until the queues
    drain would never end."""
    if batch_size < 1:
        raise ValueError(
            f"burst size must be at least 1, got {batch_size}")


class XdpHook:
    """One XDP program attached to one NIC through the data plane.

    Created via :meth:`BpfSubsystem.attach_nic` (or the plane's
    :meth:`DataPlane.attach` convenience); also registers on the
    kernel's generic ``xdp`` hook chain so ``bpftool`` listings and
    quarantine's detach-everywhere see data-plane attachments like any
    other."""

    def __init__(self, subsystem: BpfSubsystem, plane: "DataPlane",
                 prog: LoadedProgram, nic: SimulatedNic) -> None:
        if prog.prog_type.value != "xdp":
            raise BpfRuntimeError(
                f"program ({prog.name}) is {prog.prog_type.value}, "
                f"not xdp: cannot attach to {nic.name}")
        if nic.ifindex not in plane.nics:
            plane.register_nic(nic)
        self.subsystem = subsystem
        self.plane = plane
        self.prog = prog
        self.nic = nic
        self.hook_name = f"bpf:{prog.name}@{nic.name}"
        subsystem.kernel.hooks.attach(
            "xdp", self.hook_name,
            lambda skb: subsystem.run(prog, skb.address))
        plane.hooks[nic.ifindex] = self

    def detach(self) -> None:
        """Remove the attachment from the plane and the hook chain."""
        self.subsystem.kernel.hooks.detach("xdp", self.hook_name)
        if self.plane.hooks.get(self.nic.ifindex) is self:
            del self.plane.hooks[self.nic.ifindex]


class DataPlane:
    """Device table, per-CPU delivery rings, and the polling loop."""

    def __init__(self, kernel: Kernel, subsystem: BpfSubsystem, *,
                 ringbuf_bytes: int = 1 << 16) -> None:
        self.kernel = kernel
        self.subsystem = subsystem
        #: ifindex -> device (the redirect resolution table)
        self.nics: Dict[int, SimulatedNic] = {}
        #: ifindex -> live attachment
        self.hooks: Dict[int, XdpHook] = {}
        #: one PASS-delivery ring per CPU, so per-CPU RX queues never
        #: contend for ring space with each other
        self.ringbufs: List[RingBufMap] = [
            subsystem.create_map("ringbuf", max_entries=ringbuf_bytes)
            for __ in kernel.cpus]
        #: packets that reached a verdict since creation
        self.processed = 0
        #: verdict name -> count, across all NICs (plain ints: the
        #: per-batch tallies land here and in telemetry together)
        self.verdicts: Dict[str, int] = {
            name: 0 for name in VERDICT_NAMES.values()}
        #: PASS records refused by full delivery rings
        self.delivery_drops = 0

    # -- devices and attachment ------------------------------------------------

    def register_nic(self, nic: SimulatedNic) -> SimulatedNic:
        """Add a device to the redirect-resolution table."""
        if nic.ifindex in self.nics:
            raise BpfRuntimeError(
                f"ifindex {nic.ifindex} already registered "
                f"({self.nics[nic.ifindex].name})")
        self.nics[nic.ifindex] = nic
        return nic

    def create_nic(self, ifindex: int, name: Optional[str] = None,
                   **kwargs: object) -> SimulatedNic:
        """Create and register a NIC in one step."""
        return self.register_nic(
            SimulatedNic(self.kernel, ifindex, name, **kwargs))

    def attach(self, prog: LoadedProgram,
               nic: SimulatedNic) -> XdpHook:
        """Attach ``prog`` to ``nic`` (delegates to the subsystem)."""
        return self.subsystem.attach_nic(prog, self, nic)

    # -- the poll loop -----------------------------------------------------------

    def process_all(self, batch_size: int = DEFAULT_BATCH) -> int:
        """Poll every attached NIC until its RX rings are empty;
        returns how many packets reached a verdict.  Raises
        ``ValueError`` for a ``batch_size`` below 1."""
        _check_burst(batch_size)
        done = 0
        progressed = True
        while progressed:
            progressed = False
            for ifindex in sorted(self.hooks):
                hook = self.hooks[ifindex]
                for queue in hook.nic.queues:
                    while queue.pending:
                        done += self._poll_queue(hook, queue,
                                                 batch_size)
                        progressed = True
        return done

    def process_all_smp(self, seed: int = 0,
                        batch_size: int = DEFAULT_BATCH) -> int:
        """Concurrent poll under the deterministic SMP scheduler.

        Where :meth:`process_all` serializes queues round-robin, this
        spawns one logical task per (NIC, RX queue) pinned to the
        queue's CPU, so queues genuinely race: bursts on different
        CPUs interleave at every yield point (helper calls, shared-map
        ops, ring-buffer produce) under the seeded schedule.  The VM's
        per-program activation state is context-switched per task.
        Same seed, same trace — the scheduler is left on
        :attr:`last_smp` so callers can pin ``trace_signature()``.
        Returns how many packets reached a verdict; raises
        ``ValueError`` for a ``batch_size`` below 1."""
        from repro.kernel.smp import SmpScheduler

        _check_burst(batch_size)
        smp = SmpScheduler(self.kernel, seed=seed)
        smp.vm = self.subsystem.vm
        for ifindex in sorted(self.hooks):
            hook = self.hooks[ifindex]
            for queue in hook.nic.queues:
                def worker(hook: XdpHook = hook,
                           queue: RxQueue = queue) -> int:
                    done = 0
                    while queue.pending:
                        done += self._poll_queue(hook, queue,
                                                 batch_size)
                    return done
                smp.spawn(worker, cpu=queue.cpu_id,
                          name=f"poll:{hook.nic.name}q{queue.cpu_id}")
        #: the completed scheduler of the most recent SMP poll
        self.last_smp = smp
        if not smp.tasks:
            return 0
        results = smp.run()
        return sum(r for r in results if isinstance(r, int))

    def poll(self, nic: SimulatedNic,
             batch_size: int = DEFAULT_BATCH) -> int:
        """One NAPI pass: up to ``batch_size`` packets from each of
        ``nic``'s RX queues; returns packets processed."""
        hook = self.hooks.get(nic.ifindex)
        if hook is None:
            raise BpfRuntimeError(f"no program attached to {nic.name}")
        return sum(self._poll_queue(hook, queue, batch_size)
                   for queue in nic.queues)

    def _poll_queue(self, hook: XdpHook, queue: RxQueue,
                    batch_size: int) -> int:
        """Process one burst from one RX queue on its CPU."""
        pending = queue.pending
        if not pending:
            return 0
        kernel = self.kernel
        nic = hook.nic
        kernel.set_current_cpu(queue.cpu_id)
        vm = self.subsystem.vm
        telemetry = kernel.telemetry
        latency_hist = telemetry.net_latency_histogram(nic.name)
        clock = kernel.clock
        frame = queue.frame
        ctx_addr = frame.ctx_addr
        tallies = dict.fromkeys(VERDICT_NAMES, 0)
        passed: List[bytes] = []
        redirected: List[Tuple[bytes, Optional[int]]] = []
        txed: List[bytes] = []

        def route(verdict: int) -> None:
            if verdict == XDP_PASS:
                passed.append(frame.payload())
            elif verdict == XDP_TX:
                txed.append(frame.payload())
            elif verdict == XDP_REDIRECT:
                redirected.append((frame.payload(),
                                   vm.take_redirect()))
            elif vm.pending_redirect is not None:
                # stashed a target but returned another verdict:
                # stale state must not leak into the next packet
                vm.pending_redirect = None
            tallies[verdict if verdict in VERDICT_NAMES
                    else XDP_ABORTED] += 1
            latency_hist.observe(clock.now_ns - frame.rx_ns)

        n = 0
        if kernel.recovery is not None:
            # chaos --recover path: per-packet supervised dispatch so
            # injected panics are contained and breakers trip; slower,
            # but correctness is the product here, not throughput
            while pending and n < batch_size:
                payload, rx_ns = pending.popleft()
                frame.fill(payload, rx_ns)
                route(self.subsystem.run(hook.prog, ctx_addr))
                n += 1
        else:
            with vm.batch_runner(hook.prog) as run_one:
                while pending and n < batch_size:
                    payload, rx_ns = pending.popleft()
                    frame.fill(payload, rx_ns)
                    route(run_one(ctx_addr))
                    n += 1

        # flush the burst's byproducts outside the critical section
        if passed:
            ring = self.ringbufs[queue.cpu_id]
            __, refused = ring.output_batch(passed)
            self.delivery_drops += refused
        for payload in txed:
            nic.transmit(payload)
        faults = kernel.faults
        for payload, target in redirected:
            if faults.armed:
                action = faults.check("net.redirect")
                if action is not None and action.kind != "delay":
                    target = None
            device = self.nics.get(target) if target is not None \
                else None
            if device is None:
                nic.rx_drops["redirect_gone"] = \
                    nic.rx_drops.get("redirect_gone", 0) + 1
                telemetry.record_net_rx_drop(nic.name,
                                             "redirect_gone")
            else:
                device.transmit(payload)
        for verdict, count in tallies.items():
            if count:
                name = VERDICT_NAMES[verdict]
                self.verdicts[name] += count
                telemetry.net_verdict_counter(nic.name, name).inc(count)
        self.processed += n
        return n

    # -- userspace side ----------------------------------------------------------

    def drain(self, cpu_id: Optional[int] = None) -> List[bytes]:
        """Consume delivered PASS packets — one CPU's ring, or every
        ring in CPU order."""
        rings = self.ringbufs if cpu_id is None \
            else [self.ringbufs[cpu_id]]
        out: List[bytes] = []
        for ring in rings:
            out.extend(ring.drain())
        return out

    def summary(self) -> Dict[str, object]:
        """JSON-ready roll-up: verdicts, per-NIC counters, delivery
        and drop accounting, clock position."""
        return {
            "processed": self.processed,
            "verdicts": dict(self.verdicts),
            "delivery_drops": self.delivery_drops,
            "clock_ns": self.kernel.clock.now_ns,
            "nics": {
                nic.name: {
                    "ifindex": nic.ifindex,
                    "rx_packets": nic.rx_packets,
                    "rx_drops": dict(sorted(nic.rx_drops.items())),
                    "tx_packets": nic.tx_packets,
                    "tx_bytes": nic.tx_bytes,
                    "pending": nic.pending(),
                }
                for __, nic in sorted(self.nics.items())},
        }

    def signature(self) -> str:
        """SHA-256 over the summary, the latency histograms and every
        ring's undrained contents — two seeded runs that diverge
        anywhere in the data plane produce different signatures."""
        import hashlib
        import json

        hasher = hashlib.sha256()
        hasher.update(json.dumps(self.summary(),
                                 sort_keys=True).encode())
        family = self.kernel.telemetry.registry.get(
            "repro_net_latency_ns")
        if family is not None:
            for labels, hist in family.samples():
                hasher.update(repr((labels,
                                    hist.bucket_counts,
                                    hist.count,
                                    hist.total)).encode())
        for cpu_id, ring in enumerate(self.ringbufs):
            hasher.update(cpu_id.to_bytes(4, "little"))
            for record in ring._records:
                hasher.update(len(record).to_bytes(4, "little"))
                hasher.update(record)
        return hasher.hexdigest()

    def shutdown(self) -> None:
        """Detach every hook and free NIC frames (plane teardown);
        rings are destroyed with the subsystem's maps."""
        for hook in list(self.hooks.values()):
            hook.detach()
        for nic in self.nics.values():
            nic.shutdown()
