"""Deterministic fault injection for the simulated kernel.

The paper's position is that extension safety must be *enforced at
runtime*; this package is how the reproduction proves the enforcement
machinery actually holds.  A :class:`~repro.faultinject.plane.FaultPlane`
hangs off every :class:`~repro.kernel.kernel.Kernel` and delivers
scheduled failures (ENOMEM, ENOSPC, EINVAL, panics, virtual-clock
delays) at named failpoints in helper dispatch, map operations, the
per-CPU pool, watchdog delivery, RCU grace periods and the load
pipeline — all reproducible from a single seed.

``repro.faultinject.chaos`` (imported explicitly, not re-exported
here, to avoid a cycle through the attack corpus) replays the attack
corpus under canned fault schedules and checks isolation invariants;
``repro.faultinject.scenario`` holds what every seeded suite shares
(``case_seed``, ``CaseResult``/``Report``) for the
``python -m repro.scenarios`` runner.
"""

from repro.faultinject.plane import (
    FaultAction,
    FaultPlane,
    KNOWN_SITES,
    NthHit,
    OneShot,
    Probability,
    Schedule,
    Scripted,
    parse_action,
    parse_rule,
    parse_schedule,
)

__all__ = [
    "FaultAction",
    "FaultPlane",
    "KNOWN_SITES",
    "NthHit",
    "OneShot",
    "Probability",
    "Schedule",
    "Scripted",
    "parse_action",
    "parse_rule",
    "parse_schedule",
]
