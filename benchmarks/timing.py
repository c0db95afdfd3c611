"""Interleaved, host-scaled timing for the bench gates.

A gate compares *arms* (engines, tiers, stats on and off, program
sizes) measured in one run.  :func:`interleave` runs every arm once
per round, for one short window (a program run, a batch of loads, a
chunk of packets), rotating which arm starts, so a swing in the
host's speed lands on every arm alike; each window is scaled to the
reference host speed by perfbench's ``HostSpeed``.  A gate checks
the median of the per-round paired values (:class:`Paired`), and a
median closer to its bound than its noise fails as "too noisy": it
never passes.
"""

import gc
import json
import math
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from perfbench.workloads import HostSpeed

#: every bench writes its results here (gitignored)
RESULTS_DIR = Path(__file__).resolve().parent.parent / ".benchmarks"
ROUNDS = 30


def timed(fn: Callable, *args: object) -> Tuple[object, float]:
    """``fn(*args)`` and its wall seconds."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def interleave(arms: Dict[str, Callable[[], Tuple[float, float]]],
               rounds: int = ROUNDS) -> Dict[str, List[float]]:
    """Call every arm once per round, the starting arm rotated by one
    each round; a call is one window and returns its (work, wall
    seconds).  Returns each arm's rate in every round: work per second
    at the reference host speed."""
    names = list(arms)
    rates: Dict[str, List[float]] = {name: [] for name in names}
    # the arms' set-up garbage is collected before, not inside, a window
    gc.collect()
    host = HostSpeed()
    for __ in range(host.recent):
        host.sample()
    for round_no in range(rounds):
        first = round_no % len(names)
        for name in names[first:] + names[:first]:
            work, seconds = arms[name]()
            rates[name].append(work / (seconds * host.factor()))
            host.maybe_sample()
    return rates


def medians(rates: Dict[str, List[float]]) -> Dict[str, float]:
    return {name: statistics.median(values)
            for name, values in rates.items()}


class Paired:
    """One gated figure, measured once per round, and the noise of its
    median: the per-round interquartile range over sqrt(rounds)."""

    def __init__(self, values: List[float]) -> None:
        self.values = values
        self.median = statistics.median(values)
        q1, __, q3 = statistics.quantiles(values, n=4)
        self.noise = (q3 - q1) / math.sqrt(len(values))

    def at_least(self, floor: float, what: str) -> None:
        self._check(self.median - floor, "below", f"floor {floor:.3f}",
                    what)

    def at_most(self, ceiling: float, what: str) -> None:
        self._check(ceiling - self.median, "above",
                    f"ceiling {ceiling:.3f}", what)

    def _check(self, margin: float, side: str, bound: str,
               what: str) -> None:
        """Pass only when the median sits on the passing side of its
        bound by more than the noise (``margin`` > noise)."""
        if margin <= self.noise:
            verdict = "too noisy near" if margin >= -self.noise else side
            raise AssertionError(
                f"{what}: {verdict} its {bound}: median "
                f"{self.median:.3f}, noise {self.noise:.3f} over "
                f"{len(self.values)} rounds ({min(self.values):.3f} to "
                f"{max(self.values):.3f})")


def paired(rates: Dict[str, List[float]], num: str, den: str) -> Paired:
    """Arm ``num``'s rate over arm ``den``'s, round by round."""
    return Paired([a / b for a, b in zip(rates[num], rates[den])])


def write_results(path: Path, results: dict) -> None:
    """Persist a bench's results, each Paired figure with its rounds."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2, default=vars) + "\n")
