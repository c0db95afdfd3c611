"""Supervised fault containment: domains, health states, soft reset.

The paper's §3 bet is that runtime mechanisms can replace static
verification; this package completes the bet by making extension
failure *recoverable*.  Every supervised program runs inside a
:class:`FaultDomain` that knows exactly what the program holds; when
it oopses, the :class:`Supervisor` unwinds only that domain, clears
the scoped taint (:meth:`~repro.kernel.kernel.Kernel.soft_reset`),
and manages the program's health — degrade, quarantine behind a
sliding-window circuit breaker, auto-reload from the load cache when
the breaker half-opens — escalating to a real panic only when a
containment invariant fails or the oops budget runs out.
"""

from repro.recovery.domain import FaultDomain, UnwindReport
from repro.recovery.supervisor import (
    HealthState,
    ProgramHealth,
    RecoveryPolicy,
    Supervisor,
)

__all__ = [
    "FaultDomain",
    "HealthState",
    "ProgramHealth",
    "RecoveryPolicy",
    "Supervisor",
    "UnwindReport",
]
