"""Table 1: bug statistics in eBPF helper functions and the verifier.

Renders the 2021-2022 bug population by category and component
(40 total: 18 helper, 22 verifier) and then *executes* every bug this
reproduction models: each must fire on a buggy-era kernel and stay
silent on a patched one — the executable cross-check that the counted
bugs are real behaviours, not just labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.bugs import (
    TABLE1_EXPECTED,
    executable_bugs,
    table1_counts,
    totals,
)
from repro.ebpf.bugs import BugConfig
from repro.experiments import report
from repro.experiments.bug_demos import demo_for


@dataclass
class Table1Result:
    """Counts plus the executable cross-check outcomes."""

    counts: Dict[str, Tuple[int, int, int]]
    totals: Tuple[int, int, int]
    #: flag -> (fired on buggy kernel, fired on patched kernel)
    demo_outcomes: Dict[str, Tuple[bool, bool]]

    @property
    def matches_paper(self) -> bool:
        """Counts equal Table 1 exactly."""
        return self.counts == TABLE1_EXPECTED \
            and self.totals == (40, 18, 22)

    @property
    def all_demos_correct(self) -> bool:
        """Every modeled bug fires iff its flag is set."""
        return all(buggy and not patched
                   for buggy, patched in self.demo_outcomes.values())


def run() -> Table1Result:
    """Regenerate Table 1 and run the executable cross-check."""
    buggy, patched = BugConfig(), BugConfig.all_patched()
    outcomes: Dict[str, Tuple[bool, bool]] = {}
    for bug in executable_bugs():
        demo = demo_for(bug.repro_flag)
        if demo is None:
            continue
        outcomes[bug.repro_flag] = (demo(buggy), demo(patched))
    return Table1Result(counts=table1_counts(), totals=totals(),
                        demo_outcomes=outcomes)


def render(result: Table1Result) -> str:
    """The Table 1 artifact."""
    rows = [(category, *result.counts.get(category, (0, 0, 0)))
            for category in TABLE1_EXPECTED]
    rows.append(("Total", *result.totals))
    parts = [report.render_table(
        ["Vulnerabilities/Bugs", "Total", "Helper", "Verifier"], rows,
        title="Table 1: bug statistics in eBPF helpers and verifier "
              "(2021-2022)")]
    parts.append("")
    parts.append(report.render_table(
        ["modeled bug (BugConfig flag)", "fires (buggy)",
         "fires (patched)"],
        [(flag, buggy, patched)
         for flag, (buggy, patched) in
         sorted(result.demo_outcomes.items())],
        title="Executable cross-check"))
    parts.append("")
    parts.append("Shape checks:")
    parts.append(report.check(
        "counts match the paper exactly (40 = 18 helper + 22 verifier)",
        result.matches_paper))
    parts.append(report.check(
        f"every modeled bug fires iff present "
        f"({len(result.demo_outcomes)} modeled)",
        result.all_demos_correct))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
