"""Per-program runtime and load-pipeline statistics.

The run-side fields mirror what ``kernel.bpf_stats_enabled`` makes
visible on real Linux (``run_cnt``/``run_time_ns`` in
``bpf_prog_info``) plus the simulation's richer view: instructions
executed, helper/kcrate boundary crossings, watchdog fires, contained
panics and oops attribution.  The load-side fields record where the
loading pipeline spent its host wall time (verify / JIT / predecode /
cache hit) and how hard the verifier worked — the §2.1 cost metrics,
captured per program instead of per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ProgStats:
    """Cumulative statistics for one named program in one framework."""

    framework: str
    name: str
    prog_id: int = 0

    # -- run stats (gated by stats_enabled) --------------------------------
    run_cnt: int = 0
    run_time_ns: int = 0
    insns: int = 0
    helper_calls: int = 0
    #: helper/kcrate symbol -> call count
    helper_counts: Dict[str, int] = field(default_factory=dict)

    # -- failure accounting (always on) ------------------------------------
    watchdog_fires: int = 0
    panics: int = 0
    oopses: int = 0
    #: oopses contained by the recovery supervisor's domain unwind
    contained: int = 0

    # -- load pipeline (recorded at every load) ----------------------------
    loads: int = 0
    cache_hits: int = 0
    verify_ns: int = 0
    jit_ns: int = 0
    predecode_ns: int = 0
    #: recorded by the VM when it compiles the program, not at load
    compile_ns: int = 0
    verifier_insns_processed: int = 0
    verifier_states_explored: int = 0

    def record_run(self, run_time_ns: int, insns: int,
                   helper_calls: int) -> None:
        """Fold one invocation into the cumulative run stats."""
        self.run_cnt += 1
        self.run_time_ns += run_time_ns
        self.insns += insns
        self.helper_calls += helper_calls

    def record_helper(self, symbol: str) -> None:
        """Count one helper/kcrate call by symbol name."""
        self.helper_counts[symbol] = \
            self.helper_counts.get(symbol, 0) + 1

    def record_load(self, *, cache_hit: bool, verify_ns: int = 0,
                    jit_ns: int = 0, predecode_ns: int = 0,
                    insns_processed: int = 0,
                    states_explored: int = 0) -> None:
        """Fold one trip through the load pipeline into the stats."""
        self.loads += 1
        if cache_hit:
            self.cache_hits += 1
        self.verify_ns += verify_ns
        self.jit_ns += jit_ns
        self.predecode_ns += predecode_ns
        self.verifier_insns_processed += insns_processed
        self.verifier_states_explored += states_explored

    @property
    def avg_run_time_ns(self) -> float:
        """Mean virtual nanoseconds per run (0.0 before any run)."""
        return self.run_time_ns / self.run_cnt if self.run_cnt else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every field."""
        return {
            "framework": self.framework,
            "name": self.name,
            "prog_id": self.prog_id,
            "run_cnt": self.run_cnt,
            "run_time_ns": self.run_time_ns,
            "avg_run_time_ns": self.avg_run_time_ns,
            "insns": self.insns,
            "helper_calls": self.helper_calls,
            "helper_counts": dict(sorted(self.helper_counts.items())),
            "watchdog_fires": self.watchdog_fires,
            "panics": self.panics,
            "oopses": self.oopses,
            "contained": self.contained,
            "loads": self.loads,
            "cache_hits": self.cache_hits,
            "verify_ns": self.verify_ns,
            "jit_ns": self.jit_ns,
            "predecode_ns": self.predecode_ns,
            "compile_ns": self.compile_ns,
            "verifier_insns_processed": self.verifier_insns_processed,
            "verifier_states_explored": self.verifier_states_explored,
        }


class ProgStatsTable:
    """All per-program stats, keyed by ``framework:name``."""

    def __init__(self) -> None:
        self._stats: Dict[str, ProgStats] = {}

    def get(self, framework: str, name: str,
            prog_id: Optional[int] = None) -> ProgStats:
        """The stats row for one program, created on first use."""
        key = f"{framework}:{name}"
        row = self._stats.get(key)
        if row is None:
            row = ProgStats(framework=framework, name=name)
            self._stats[key] = row
        if prog_id is not None:
            row.prog_id = prog_id
        return row

    def lookup(self, framework: str, name: str) -> Optional[ProgStats]:
        """The stats row if the program has ever been seen."""
        return self._stats.get(f"{framework}:{name}")

    def by_source_tag(self, source: str) -> Optional[ProgStats]:
        """Resolve an attribution tag (``bpf:name`` /
        ``safelang:name``) to its stats row, if registered."""
        if ":" not in source:
            return None
        framework, name = source.split(":", 1)
        if framework == "bpf":
            framework = "ebpf"
        return self._stats.get(f"{framework}:{name}")

    def rows(self) -> "list[ProgStats]":
        """Every stats row, sorted by key for deterministic output."""
        return [self._stats[key] for key in sorted(self._stats)]

    def __len__(self) -> int:
        return len(self._stats)
