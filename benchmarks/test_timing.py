"""Self-test of the bench timing harness (``timing.py``).

Scripted arms return fixed work and seconds, and a scripted host speed
stands in for perfbench's ``HostSpeed``, so no test here reads the
wall clock and none can flake.  Runs under ``make bench``.
"""

import pytest

import timing
from timing import interleave, paired

WORK = 100


@pytest.fixture
def factors(monkeypatch):
    """The host-speed factor each successive window is scaled by
    (1.0 once the list runs out); no clock is read."""
    script = []

    class ScriptedHost:
        recent = 5

        def sample(self):
            pass

        maybe_sample = sample

        def factor(self):
            return script.pop(0) if script else 1.0

    monkeypatch.setattr(timing, "HostSpeed", ScriptedHost)
    return script


def scripted(seconds, calls=None, name=None):
    """An arm doing ``WORK`` per window in the scripted ``seconds``,
    logging its ``name`` to ``calls`` on every call."""
    script = iter(seconds)

    def window():
        if calls is not None:
            calls.append(name)
        return WORK, next(script)
    return window


def test_starting_arm_rotates_each_round(factors):
    calls = []
    interleave({name: scripted([1.0] * 3, calls, name)
                for name in "abc"}, rounds=3)
    assert calls == list("abc" "bca" "cab")


def test_ratios_pair_the_windows_of_one_round(factors):
    rates = interleave({"a": scripted([1.0, 0.1, 0.01]),
                        "b": scripted([1.0, 1.0, 0.01])}, rounds=3)
    ratio = paired(rates, "a", "b")
    assert ratio.values == pytest.approx([1.0, 10.0, 1.0])
    # the ratio of the arms' own medians would read 10
    assert ratio.median == pytest.approx(1.0)


def test_thirty_percent_slower_arm_fails_below_its_floor(factors):
    """A 4.5x arm that loses 30% reads 3.15x against a 3.6x floor
    (80% of 4.5x): a clean failure, not a noisy one."""
    jitter = [1.0, 1.02, 0.98, 1.01, 0.99] * 3
    healthy = interleave({"fast": scripted([j / 4.5 for j in jitter]),
                          "interp": scripted([1.0] * 15)}, rounds=15)
    paired(healthy, "fast", "interp").at_least(3.6, "healthy")
    slowed = interleave({"fast": scripted([j / 3.15 for j in jitter]),
                         "interp": scripted([1.0] * 15)}, rounds=15)
    with pytest.raises(AssertionError, match="below its floor 3.600"):
        paired(slowed, "fast", "interp").at_least(3.6, "slowed")


@pytest.mark.parametrize("median", [3.7, 3.5])
def test_spread_straddling_the_floor_fails_as_too_noisy(factors,
                                                        median):
    """Rounds from 2.5x to 5x, with the median 0.1x on either side of
    a 3.6x floor: too noisy to judge, so never a pass."""
    spread = [2.5, 3.0, median, 4.5, 5.0]
    rates = interleave({"fast": scripted([1 / r for r in spread]),
                        "interp": scripted([1.0] * 5)}, rounds=5)
    with pytest.raises(AssertionError, match="too noisy near its floor"):
        paired(rates, "fast", "interp").at_least(3.6, "straddling")
    with pytest.raises(AssertionError, match="too noisy near its ceiling"):
        paired(rates, "fast", "interp").at_most(3.6, "straddling")


def test_host_speed_scales_every_window(factors):
    factors.extend([1.0, 0.5, 2.0, 0.25, 4.0, 0.8])
    rates = interleave({"a": scripted([1.0] * 3),
                        "b": scripted([2.0] * 3)}, rounds=3)
    # windows run a b | b a | a b, each scaled by its own factor
    assert rates["a"] == pytest.approx(
        [WORK / (1.0 * 1.0), WORK / (1.0 * 0.25), WORK / (1.0 * 4.0)])
    assert rates["b"] == pytest.approx(
        [WORK / (2.0 * 0.5), WORK / (2.0 * 2.0), WORK / (2.0 * 0.8)])
