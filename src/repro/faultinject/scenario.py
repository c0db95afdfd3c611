"""What every seeded scenario suite shares.

Each suite ``python -m repro.scenarios`` runs — chaos, recover, race,
fleet, fleet-chaos — is a pure function of its seed that returns one
:class:`Report`: a list of :class:`CaseResult` rows naming what ran
(``case`` × ``variant``), how it ended, the faults it was dealt, the
signature that pins it and every invariant it broke.  The runner
(:mod:`repro.scenarios`) owns the rest: the command line, the double
run that proves determinism, printing and the exit status.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import ReproError, VerifierError


def case_seed(seed: int, case_id: str, schedule: str) -> int:
    """Per-(case, schedule) seed, derived stably from the master seed
    (``hash()`` is salted per interpreter run, so not that)."""
    digest = hashlib.sha256(
        f"{seed}:{case_id}:{schedule}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def json_digest(value: object) -> str:
    """SHA-256 of a JSON-able value with its keys sorted."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


@dataclass
class CaseResult:
    """One scenario run: ``case`` under ``variant`` (a fault schedule,
    a release, a corpus class)."""

    case: str
    variant: str
    outcome: str
    faults: int = 0
    signature: str = ""
    violations: List[str] = field(default_factory=list)
    #: suite-specific figures for ``--json`` and ``-v``; not part of
    #: :meth:`Report.signature`
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held for this run."""
        return not self.violations


@dataclass
class Report:
    """One full suite run."""

    seed: int
    results: List[CaseResult]

    @property
    def violations(self) -> List[str]:
        """Every violation across the suite, labeled by case."""
        return [f"{r.case} × {r.variant}: {v}"
                for r in self.results for v in r.violations]

    @property
    def clean(self) -> bool:
        """True when the whole suite held every invariant."""
        return not self.violations

    @property
    def total_faults(self) -> int:
        """Faults delivered across every case."""
        return sum(r.faults for r in self.results)

    def signature(self) -> str:
        """Digest of every case's outcome and signature, for
        determinism comparisons across whole runs."""
        digest = hashlib.sha256()
        for r in self.results:
            digest.update(
                f"{r.case}:{r.variant}:{r.outcome}:"
                f"{r.signature}".encode())
        return digest.hexdigest()


def exception_outcome(exc: Exception, violations: List[str],
                      where: str,
                      legal: Tuple[Type[Exception], ...] = (ReproError,),
                      ) -> str:
    """Label an exception that crossed a scenario boundary.

    A ``legal`` one — by default a simulated kernel event, which the
    invariants then judge — is ``raised:X``.  Anything else means the
    *simulation* broke, not the simulated system: ``escaped:X`` plus a
    violation."""
    name = type(exc).__name__
    if isinstance(exc, legal):
        return f"raised:{name}"
    violations.append(f"exception escaped {where}: {name}: {exc}")
    return f"escaped:{name}"


def load_retrying(bpf: object, build: Callable[[], Sequence[object]],
                  prog_type: object, name: str) -> Optional[object]:
    """Load ``build()`` as ``name``, asking again on every verifier
    refusal (a load-chaos schedule refuses even retried loads);
    ``None`` once 32 loads were all refused."""
    for __ in range(32):
        try:
            return bpf.load_program(build(), prog_type, name)
        except VerifierError:
            continue
    return None
