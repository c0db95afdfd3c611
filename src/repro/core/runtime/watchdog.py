"""The watchdog timer: runtime termination enforcement.

eBPF buys termination with static limits on loops and program size —
and still fails (§2.2's bpf_loop attack).  The proposed framework
instead lets extensions loop freely and bounds *time*: a watchdog
armed at entry fires when the extension exceeds its budget, and the
runtime terminates it safely (trusted cleanup, kernel survives).

The watchdog hangs off the virtual clock, so it interrupts an
extension mid-execution the way a timer interrupt would.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.kernel.ktime import VirtualClock


class Watchdog:
    """One armed watchdog for one extension invocation."""

    def __init__(self, clock: VirtualClock, budget_ns: int,
                 name: str = "extension",
                 on_fire: Optional[Callable[["Watchdog"], None]] = None,
                 faults: Optional[object] = None) -> None:
        if budget_ns <= 0:
            raise ValueError("watchdog budget must be positive")
        self.clock = clock
        self.budget_ns = budget_ns
        self.name = name
        #: total budget exhaustions over this watchdog's lifetime
        self.fire_count = 0
        self.last_fire_ns: Optional[int] = None
        #: invoked exactly once per firing, at the clock tick that
        #: exhausts the budget; telemetry hooks in here and publishes
        #: the kill, with its dmesg line, as one event
        self.on_fire = on_fire
        #: optional fault-injection plane; the ``watchdog.fire``
        #: failpoint perturbs *delivery*, never cancels it outright
        self.faults = faults
        self._deadline: Optional[int] = None
        self._fired = False
        self._callback_name = f"watchdog:{name}:{id(self)}"

    @property
    def fired(self) -> bool:
        """True once the budget was exceeded."""
        return self._fired

    @property
    def armed(self) -> bool:
        """True while the watchdog is counting down."""
        return self._deadline is not None

    def arm(self) -> None:
        """Start the countdown (registers a clock tick hook).

        Idempotent: re-arming replaces any previous registration, so a
        watchdog never holds more than one tick hook.
        """
        self.clock.remove_tick_callback(self._callback_name)
        self._deadline = self.clock.now_ns + self.budget_ns
        self._fired = False
        self.clock.add_tick_callback(self._callback_name, self._on_tick)

    def disarm(self) -> None:
        """Stop the countdown (normal extension exit)."""
        self._deadline = None
        self.clock.remove_tick_callback(self._callback_name)

    def _on_tick(self, now_ns: int) -> None:
        if self._deadline is not None and now_ns >= self._deadline:
            if self.faults is not None and self.faults.armed:
                # this runs inside a clock tick, so the plane must not
                # advance the clock (apply_delay=False); a delay fault
                # pushes the deadline instead, any other fault skips
                # this delivery attempt by one tick — delivery is
                # delayed, never lost, so runaway extensions still die
                action = self.faults.check("watchdog.fire",
                                           apply_delay=False)
                if action is not None:
                    self._deadline = now_ns + max(1, action.delay_ns)
                    return
            # one-shot: firing deregisters the hook, so a watchdog
            # whose extension is killed before disarm() doesn't leave
            # a stale callback ticking on the clock forever
            self._fired = True
            self._deadline = None
            self.fire_count += 1
            self.last_fire_ns = now_ns
            self.clock.remove_tick_callback(self._callback_name)
            if self.on_fire is not None:
                self.on_fire(self)

    def remaining_ns(self) -> int:
        """Budget left; 0 when expired or disarmed."""
        if self._deadline is None:
            return 0
        return max(0, self._deadline - self.clock.now_ns)
