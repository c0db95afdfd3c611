"""One runner for the seeded scenario suites.

``python -m repro.scenarios <suite> [--seed S] [--schedule NAME]...
[-v] [--json]`` runs one suite *twice* and compares the two reports'
signatures, so every run is also a determinism check:

* ``chaos`` — the attack corpus under every canned fault schedule,
  isolation invariants after each replay;
* ``recover`` — the same replay supervised: every kernel must stay
  alive, and each schedule demonstrates quarantine + auto-reload;
* ``race`` — the planted concurrency bugs must be found with
  replayable seeds, the race-free corpus must stay silent and
  nproc-invariant;
* ``fleet`` — the staged-rollout acceptance scenario: the good
  release converges, the bad one is halted at its canary wave;
* ``fleet-chaos`` — both releases under every control-channel
  schedule, plus a crash/resume leg per pair.

A suite is a function of its seed that returns one
:class:`~repro.faultinject.scenario.Report`; the runner owns the
command line, the double run, printing and the exit status: 0 when
both runs held every invariant and agreed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from typing import Dict, Optional, Sequence, Tuple

#: suite -> (module, entry point, schedule table or None, fixed
#: keyword arguments); a suite's module is imported only when it runs
SUITES: Dict[str, Tuple[str, str, Optional[str], dict]] = {
    "chaos": ("repro.faultinject.chaos", "run_chaos", "SCHEDULES", {}),
    "recover": ("repro.faultinject.chaos", "run_chaos", "SCHEDULES",
                {"recover": True}),
    "race": ("repro.faultinject.interleave", "run_race", None, {}),
    "fleet": ("repro.fleet.demo", "run_fleet", None, {}),
    "fleet-chaos": ("repro.fleet.chaos", "run_fleet_chaos",
                    "FLEET_SCHEDULES", {}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one suite twice; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run a seeded scenario suite twice, check its "
                    "invariants and that both runs are bit-identical.")
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the suite's own)")
    parser.add_argument("--schedule", action="append", default=None,
                        help="fault schedule to replay (repeatable; "
                             "default: all)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every case result")
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON document")
    args = parser.parse_args(argv)

    module_name, entry, table, fixed = SUITES[args.suite]
    module = importlib.import_module(module_name)
    kwargs = dict(fixed)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.schedule:
        known = getattr(module, table) if table else {}
        unknown = [s for s in args.schedule if s not in known]
        if unknown:
            parser.error(f"{args.suite} has no schedule "
                         f"{', '.join(unknown)} (have: "
                         f"{', '.join(known) or 'none'})")
        kwargs["schedules"] = args.schedule
    run = getattr(module, entry)
    report = run(**kwargs)
    deterministic = run(**kwargs).signature() == report.signature()
    status = 0 if report.clean and deterministic else 1

    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "seed": report.seed,
            "ok": status == 0,
            "deterministic": deterministic,
            "signature": report.signature(),
            "violations": report.violations,
            "results": [dataclasses.asdict(r) for r in report.results],
        }, indent=2))
        return status
    name = args.suite
    if args.verbose:
        for r in report.results:
            print(f"  {'ok ' if r.ok else 'BAD'} {r.case:<24} "
                  f"{r.variant:<14} faults={r.faults:<5} "
                  f"sig={r.signature[:16]} {r.outcome}")
    print(f"{name}: {len(report.results)} cases, "
          f"{report.total_faults} faults injected, "
          f"{len(report.violations)} violations (seed {report.seed})")
    for violation in report.violations:
        print(f"{name}: VIOLATION: {violation}")
    if deterministic:
        print(f"{name}: determinism check passed "
              f"(signature {report.signature()[:16]}…)")
    else:
        print(f"{name}: NONDETERMINISM: the second run produced a "
              "different signature")
    return status


if __name__ == "__main__":
    sys.exit(main())
