"""Declarative kernel construction: :class:`KernelSpec`.

The keyword sprawl this consolidates grew one PR at a time: CPUs on
the :class:`~repro.kernel.kernel.Kernel` constructor, the JIT and load
cache on :class:`~repro.ebpf.loader.BpfSubsystem`, run stats behind
``telemetry.enable()``, fault schedules armed imperatively on
``kernel.faults``, the supervisor via ``kernel.enable_recovery``.
Each knob is fine alone; a fleet that must stamp out *hundreds of
identical nodes* needs all of them in one declarative, hashable value
— the same spec, applied N times, yields N identically-configured
kernels, which is half of what makes a rollout replayable.

``KernelSpec`` is that value.  ``Kernel.from_spec(spec)`` (and the
old constructor, now a thin shim that builds a spec from its two
legacy keywords) boots a kernel and applies the kernel-side fields;
``BpfSubsystem.from_spec(kernel, spec)`` applies the subsystem-side
ones (JIT, load cache).  Fault arms use the same
``SITE=SCHEDULE=ACTION`` strings as ``bpftool fault --arm`` so a
chaos schedule pastes straight into a fleet config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.faultinject.plane import parse_action, parse_schedule


@dataclass(frozen=True)
class KernelSpec:
    """Everything needed to stamp out one simulated kernel node.

    Frozen (hashable, reusable): the fleet applies one spec to every
    node in a wave.  The execution tier is not part of a node image:
    each node's VM picks it per program.
    """

    #: CPUs the kernel boots with
    nr_cpus: int = 4
    #: ``kernel.bpf_stats_enabled`` at boot
    stats_enabled: bool = False
    #: attach the recovery supervisor at boot
    recovery: bool = False
    #: supervisor tunables (:class:`~repro.recovery.RecoveryPolicy`);
    #: a non-None policy implies ``recovery``
    recovery_policy: Optional[object] = None
    #: seed for the fault plane; None leaves the plane disabled
    fault_seed: Optional[int] = None
    #: ``SITE=SCHEDULE=ACTION`` rules armed at boot (bpftool syntax)
    fault_arms: Tuple[str, ...] = ()
    #: subsystem-side toggles, threaded through ``from_spec``
    use_jit: bool = True
    use_load_cache: bool = True

    @property
    def wants_recovery(self) -> bool:
        """True when the spec asks for a supervisor (explicitly or by
        carrying a policy)."""
        return self.recovery or self.recovery_policy is not None

    def with_faults(self, seed: int,
                    *arms: str) -> "KernelSpec":
        """A copy with a fault schedule attached (chaos replay)."""
        return replace(self, fault_seed=seed,
                       fault_arms=self.fault_arms + tuple(arms))

    def configure(self, kernel: "object") -> None:
        """Apply the post-boot fields to a freshly-built kernel:
        stats toggle, supervisor, fault plane.  Called by
        ``Kernel.from_spec`` / the constructor shim; idempotent
        enough to call once per kernel."""
        if self.stats_enabled:
            kernel.telemetry.enable()
        if self.wants_recovery:
            kernel.enable_recovery(self.recovery_policy)
        if self.fault_seed is not None or self.fault_arms:
            kernel.faults.enable(self.fault_seed or 0)
            for arm in self.fault_arms:
                site, schedule, action = split_arm(arm)
                kernel.faults.arm(site, parse_schedule(schedule),
                                  parse_action(action))

    def boot(self, funcdb: Optional[object] = None) -> "object":
        """Build a configured :class:`~repro.kernel.kernel.Kernel`
        (convenience alias of ``Kernel.from_spec``)."""
        from repro.kernel.kernel import Kernel
        return Kernel.from_spec(self, funcdb=funcdb)

    def describe(self) -> str:
        """One-line form for logs and the fleet CLI."""
        parts = [f"cpus={self.nr_cpus}"]
        if self.stats_enabled:
            parts.append("stats=on")
        if self.wants_recovery:
            parts.append("recovery=on")
        if self.fault_seed is not None or self.fault_arms:
            parts.append(f"faults(seed={self.fault_seed or 0},"
                         f"arms={len(self.fault_arms)})")
        return " ".join(parts)


def split_arm(text: str) -> Tuple[str, str, str]:
    """Split one ``SITE=SCHEDULE=ACTION`` rule (shared with bpftool's
    ``--arm``); raises ``ValueError`` on malformed input."""
    parts = text.split("=")
    if len(parts) != 3:
        raise ValueError(
            f"bad fault arm {text!r}; expected SITE=SCHEDULE=ACTION")
    return parts[0], parts[1], parts[2]
