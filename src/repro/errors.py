"""Shared exception hierarchy for the reproduction.

Three families of failures exist in the modeled system, mirroring the
paper's taxonomy:

* :class:`KernelSafetyViolation` — a safety property was violated at
  runtime inside the simulated kernel (the events the eBPF verifier is
  supposed to make impossible, per paper §2).  These model crashes,
  stalls and leaks; they are raised by the kernel substrate itself.
* :class:`VerifierError` — the in-kernel eBPF verifier rejected a
  program at load time (paper §2.1).
* :class:`SafeLangError` — the trusted userspace toolchain of the
  proposed framework rejected a program at compile time (paper §3.1).

Keeping them in one module lets experiments classify outcomes uniformly
("rejected statically" / "contained at runtime" / "kernel compromised").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class UsageError(ReproError):
    """Outside input a command cannot use: a file that cannot be read
    or assembled, a spec that does not parse.  ``bpftool`` reports it
    as one line and exits 2."""


# ---------------------------------------------------------------------------
# Kernel-side safety events
# ---------------------------------------------------------------------------

class KernelSafetyViolation(ReproError):
    """A safety property of the simulated kernel was violated.

    Instances carry enough context for experiments to attribute the
    violation to a component (extension code, helper, verifier, JIT).
    """

    #: short machine-readable category, e.g. ``"null-deref"``
    category: str = "generic"

    def __init__(self, message: str, *, source: str = "unknown") -> None:
        super().__init__(message)
        #: which component triggered the violation
        self.source = source


class KernelOops(KernelSafetyViolation):
    """The kernel oopsed: an unrecoverable fault in kernel context.

    Models a Linux oops/panic — e.g. the NULL-pointer dereference the
    paper triggers through ``bpf_sys_bpf`` (§2.2, CVE-2022-2785).
    """

    category = "oops"


class KernelPanic(KernelOops):
    """The kernel gave up for real: containment failed (a recovery
    invariant was violated) or the oops budget ran out, and the
    supervisor escalated the soft failure to a hard panic.  Unlike a
    plain oops this is never contained — it is the end state."""

    category = "panic"


class MemoryFault(KernelOops):
    """Access to an unmapped, freed, or out-of-bounds kernel address."""

    category = "memory-fault"

    def __init__(self, message: str, *, address: int = 0,
                 source: str = "unknown") -> None:
        super().__init__(message, source=source)
        self.address = address


class NullDereference(MemoryFault):
    """Dereference of a NULL (or near-NULL) pointer in kernel context."""

    category = "null-deref"


class UseAfterFree(MemoryFault):
    """Access to a kernel allocation after it was freed."""

    category = "use-after-free"


class OutOfBoundsAccess(MemoryFault):
    """Access beyond the bounds of a live kernel allocation."""

    category = "out-of-bounds"


class RcuStall(KernelSafetyViolation):
    """An RCU read-side critical section exceeded the stall timeout.

    Models the RCU stalls the paper provokes with nested ``bpf_loop``
    calls (§2.2, the termination-violation experiment).
    """

    category = "rcu-stall"


class KernelDeadlock(KernelSafetyViolation):
    """A lock-ordering violation or self-deadlock was detected."""

    category = "deadlock"


class ResourceLeak(KernelSafetyViolation):
    """A kernel resource (refcount, lock, memory) outlived its owner."""

    category = "resource-leak"


class WatchdogTimeout(KernelSafetyViolation):
    """The runtime watchdog of the proposed framework fired.

    Unlike the other violations, a watchdog timeout is *containment*:
    the extension is terminated safely and the kernel survives.
    """

    category = "watchdog-timeout"


class StackOverflow(KernelSafetyViolation):
    """Extension exceeded its stack budget (caught by stack protection)."""

    category = "stack-overflow"


class ProtectionKeyFault(KernelSafetyViolation):
    """A write violated a memory-protection-key domain (§4's
    lightweight hardware protection [27, 30, 33]).

    Unlike a plain memory fault, a pkey fault is *containment*: the
    errant write was stopped before corrupting the protected region.
    """

    category = "pkey-fault"

    def __init__(self, message: str, *, address: int = 0,
                 pkey: int = 0, source: str = "unknown") -> None:
        super().__init__(message, source=source)
        self.address = address
        self.pkey = pkey


# ---------------------------------------------------------------------------
# eBPF load-time and run-time errors
# ---------------------------------------------------------------------------

class BpfError(ReproError):
    """Base class for errors in the modeled eBPF subsystem."""


class VerifierError(BpfError):
    """The in-kernel verifier rejected a program.

    ``log`` carries the verifier's textual log, as the real verifier
    reports to userspace.
    """

    def __init__(self, message: str, *, log: str = "") -> None:
        super().__init__(message)
        self.log = log


class VerifierLimitExceeded(VerifierError):
    """Program exceeded a verifier complexity cap (size, states, paths)."""


class BpfRuntimeError(BpfError):
    """An eBPF program faulted at run time in a *recoverable* way.

    Recoverable errors (e.g. a helper returning ``-EINVAL``) are normal;
    unrecoverable ones surface as :class:`KernelSafetyViolation`.
    """


class InvalidProgram(BpfError):
    """Malformed bytecode that fails basic structural checks."""


# ---------------------------------------------------------------------------
# Proposed-framework (SafeLang) errors
# ---------------------------------------------------------------------------

class SafeLangError(ReproError):
    """Base class for errors in the proposed extension framework."""


class LexError(SafeLangError):
    """Tokenization failure in SafeLang source."""

    def __init__(self, message: str, *, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(SafeLangError):
    """Syntax error in SafeLang source."""

    def __init__(self, message: str, *, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypeCheckError(SafeLangError):
    """Static type error in SafeLang source."""


class BorrowCheckError(SafeLangError):
    """Ownership/borrow rule violation in SafeLang source."""


class UnsafeCodeError(SafeLangError):
    """SafeLang source contains an ``unsafe`` block, which extensions
    are forbidden to use (paper §3.1: "only use safe Rust")."""


class SignatureError(SafeLangError):
    """Load-time signature validation failed (paper §3.1 / Fig. 5)."""


class ExtensionPanic(SafeLangError):
    """A SafeLang extension panicked at run time (checked arithmetic,
    explicit panic, ...).  Contained by the runtime: trusted cleanup
    runs and the kernel survives."""

    def __init__(self, message: str, *, cleanup_ok: bool = True) -> None:
        super().__init__(message)
        self.cleanup_ok = cleanup_ok
