"""Per-layer spans installed from outside the program.

The tracer wraps each layer's public entry points (class attributes and
module-level functions of ``repro``) with a timing wrapper, records one
span per call, and puts every original object back when it is removed.
Nothing under ``src/`` knows it exists.

Every span ``S`` reports ``S.calls``, its inclusive time and its self
time (inclusive time minus the inclusive time of the spans it called),
split by the phase of the pass the call ran in: set-up, a timed window,
or neither (warm-up, staging, draining, checks).  A wrapper costs time
of its own, so each span's time is corrected by the cost of an empty
wrapper measured in the same process: one empty wrapper's interior per
call, and one whole wrapper per span that ran inside it.  That is how
the very frequent ``kernel.memory.access`` and ``kernel.clock.work``
spans keep a time of their own.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> entry points, as ``module:Class.attr`` or
#: ``module:function``; a function is replaced under every name a
#: ``repro`` module imported it as
SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("net.nic.fill", ("repro.net.nic:XdpFrame.fill",
                      "repro.net.nic:XdpFrame.payload")),
    ("net.pipeline.process", ("repro.net.pipeline:DataPlane.process_all",)),
    ("net.pipeline.drain", ("repro.net.pipeline:DataPlane.drain",)),
    ("ebpf.interpreter.run", ("repro.ebpf.interpreter:BpfVm.run",
                              "repro.ebpf.interpreter:BpfVm.batch_runner")),
    ("kernel.memory.access",
     ("repro.kernel.memory:KernelAddressSpace.read",
      "repro.kernel.memory:KernelAddressSpace.write")),
    ("kernel.memory.alloc",
     ("repro.kernel.memory:KernelAddressSpace.kmalloc",
      "repro.kernel.memory:KernelAddressSpace.kfree")),
    ("kernel.clock.work", ("repro.kernel.kernel:Kernel.work",)),
    ("ebpf.helpers.call", ("repro.ebpf.interpreter:BpfVm._call_helper",)),
    ("ebpf.maps.ring_output", ("repro.ebpf.maps:RingBufMap.output_batch",)),
    ("ebpf.loader.load", ("repro.ebpf.loader:BpfSubsystem.load_program",)),
    ("ebpf.progcache.lookup",
     ("repro.ebpf.progcache:fingerprint",
      "repro.ebpf.progcache:ProgramLoadCache.lookup",
      "repro.ebpf.progcache:ProgramLoadCache.insert")),
    ("ebpf.verifier.verify",
     ("repro.ebpf.verifier.analyzer:Verifier.verify",)),
    ("ebpf.jit.compile", ("repro.ebpf.jit:jit_compile",)),
    ("ebpf.predecode.decode", ("repro.ebpf.predecode:predecode",)),
    ("ebpf.compile.compile", ("repro.ebpf.compile:compile_program",)),
    ("ebpf.helpers.registry_build",
     ("repro.ebpf.helpers.registry:build_default_registry",)),
    ("kernel.boot", ("repro.kernel.kernel:Kernel.__init__",)),
    ("fleet.orchestrator.rollout",
     ("repro.fleet.services.orchestrator:RolloutOrchestrator.rollout",)),
    ("fleet.transport.call", ("repro.fleet.transport:FleetTransport.call",)),
    ("fleet.journal.append",
     ("repro.fleet.journal:RolloutJournal.append_header",
      "repro.fleet.journal:RolloutJournal.append_entry",
      "repro.fleet.journal:RolloutJournal.append_op")),
    ("fleet.node.deploy", ("repro.fleet.adapters.node:FleetNode.deploy",)),
    ("fleet.node.soak", ("repro.fleet.adapters.node:FleetNode.soak",)),
    ("fleet.node.census", ("repro.fleet.adapters.node:FleetNode.census",)),
    ("fleet.node.rollback",
     ("repro.fleet.adapters.node:FleetNode.rollback",)),
    ("recovery.dispatch",
     ("repro.recovery.supervisor:Supervisor.run_ebpf",
      "repro.recovery.supervisor:Supervisor.load_ebpf")),
    ("kernel.hooks.deliver",
     ("repro.kernel.hooks:HookManager.deliver_packet",)),
)

SPAN_NAMES: Tuple[str, ...] = tuple(name for name, __ in SPANS)

#: phases of a pass; every span's time is kept per phase
OTHER, TIMED, SETUP = 0, 1, 2
PHASES = ("other", "timed", "setup")

#: attribute marking a tracer wrapper (what the untraced check looks for)
MARK = "__perfbench_span__"


def _resolve(target: str) -> List[Tuple[object, str]]:
    """Every (owner, attribute) pair that holds the entry point; empty
    when the program no longer has it."""
    module_name, path = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name, None)
        if owner is None or attr not in vars(owner):
            return []
        return [(owner, attr)]
    original = getattr(module, path, None)
    if original is None:
        return []
    return [(mod, name) for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("repro")
            for name, value in list(vars(mod).items())
            if value is original]


def entry_points() -> List[Tuple[str, object, str]]:
    """(span, owner, attribute) for every place a wrapper goes."""
    # import every layer first, so each alias of a function exists
    for __, targets in SPANS:
        for target in targets:
            with contextlib.suppress(ImportError):
                importlib.import_module(target.split(":")[0])
    return [(name, owner, attr)
            for name, targets in SPANS for target in targets
            for owner, attr in _resolve(target)]


def missing_entry_points() -> List[str]:
    """Targets in :data:`SPANS` the program does not define.  A rework
    that renames an entry point leaves its span empty instead of
    stopping the benchmark; the report lists what was missed."""
    return [target for __, targets in SPANS for target in targets
            if not _resolve(target)]


def installed_wrappers() -> List[str]:
    """``owner.attr`` of every entry point currently wrapped."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for __, owner, attr in entry_points()
            if hasattr(vars(owner)[attr], MARK)]


class Tracer:
    """Span recorder plus the patches that feed it.

    Wrappers only add raw clock readings; the empty-wrapper correction
    is applied by :meth:`report`.  For a span with ``n`` spans nested
    inside it, ``d`` of them direct children, the corrections are::

        inclusive = elapsed - inner - n * whole
        self      = elapsed - children's elapsed - inner
                    - d * (whole - inner)

    where ``whole`` is one wrapper's full cost and ``inner`` the part
    of it between the wrapper's own two clock reads.

    The benchmark sets :attr:`phase` around set-up and each timed
    window; phases change only while no span is open."""

    def __init__(self, wrapper_ns: float = 0.0,
                 wrapper_inner_ns: float = 0.0) -> None:
        #: whole cost of one wrapper, as a timer around the call sees it
        self.wrapper_ns = wrapper_ns
        #: part of that cost inside the wrapper's own two clock reads
        self.wrapper_inner_ns = wrapper_inner_ns
        #: span -> per phase [calls, self ns, direct children, outermost
        #: calls, their ns, spans nested in them, open calls]
        self._stats: Dict[str, List[List[int]]] = {
            name: [[0] * 7 for __ in PHASES] for name in SPAN_NAMES}
        #: open spans: [entries when it opened, children's ns, children]
        self._open: List[List[int]] = []
        #: [span entries, phase, the window's callable is a span, then
        #: what the spans in timed windows cover: ns, wrapper interiors
        #: and whole wrappers to take off it]
        self._state = [0, OTHER, False, 0, 0, 0]
        self._patches: List[Tuple[object, str, object]] = []
        #: entry points the program does not define (spans left empty)
        self.missing: List[str] = []

    @property
    def phase(self) -> int:
        """:data:`OTHER`, :data:`TIMED` or :data:`SETUP`."""
        return self._state[1]

    @phase.setter
    def phase(self, value: int) -> None:
        self._state[1] = value

    def open_window(self, fn: Callable) -> None:
        """Enter a timed window that calls ``fn``.  When ``fn`` is
        itself a span (the root), the window is covered by the spans
        below it, so the root's self time counts as uncovered."""
        self._state[1] = TIMED
        self._state[2] = hasattr(getattr(fn, "__func__", fn), MARK)

    def close_window(self) -> None:
        self._state[1] = OTHER

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one ``name`` span around every call."""
        phases = self._stats[name]
        stack = self._open
        state = self._state
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            state[0] += 1
            stat = phases[state[1]]
            frame = [state[0], 0, 0]
            stack.append(frame)
            stat[6] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                nested = state[0] - frame[0]
                stat[6] -= 1
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                stat[2] += frame[2]
                if not stat[6]:
                    # outermost call of this span: busy time counts once
                    stat[3] += 1
                    stat[4] += elapsed
                    stat[5] += nested
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += 1
                elif state[1] == TIMED:
                    if state[2]:
                        # the window's root: only its children cover it
                        state[3] += frame[1]
                        state[4] += frame[2]
                        state[5] += nested - frame[2]
                    else:
                        state[3] += elapsed
                        state[4] += 1
                        state[5] += nested

        setattr(span, MARK, name)
        span.__wrapped__ = fn
        return span

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS` (a function and all
        its aliases share one wrapper)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = missing_entry_points()
        wrappers: Dict[int, Callable] = {}
        for name, owner, attr in entry_points():
            original = vars(owner)[attr]
            replacement = wrappers.get(id(original))
            if replacement is None:
                if attr == "batch_runner":
                    replacement = self._wrap_batch_runner(name, original)
                else:
                    replacement = self.wrap(name, original)
                wrappers[id(original)] = replacement
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))

    def _wrap_batch_runner(self, name: str, original: Callable) -> Callable:
        """``BpfVm.batch_runner`` hands out ``run_one``; each packet's
        call to it is one ``name`` span."""
        tracer = self

        @contextlib.contextmanager
        def batch_runner(vm, prog):
            with original(vm, prog) as run_one:
                yield tracer.wrap(name, run_one)

        setattr(batch_runner, MARK, name)
        batch_runner.__wrapped__ = original
        return batch_runner

    def remove(self) -> List[str]:
        """Put every original back; returns the attributes that did not
        come back as the identical object (empty when all did)."""
        wrong = []
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                wrong.append(f"{owner.__name__}.{attr}")
        self._patches.clear()
        return wrong

    # -- results ----------------------------------------------------------

    def report(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """span -> phase -> calls, busy_s and self_s, corrected for the
        wrapper."""
        whole, inner = self.wrapper_ns, self.wrapper_inner_ns
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name, phases in self._stats.items():
            out[name] = {}
            for phase, stat in zip(PHASES, phases):
                calls, own, direct, outer, outer_ns, nested, __ = stat
                busy = outer_ns - outer * inner - nested * whole
                own -= calls * inner + direct * (whole - inner)
                out[name][phase] = {"calls": calls, "busy_s": busy / 1e9,
                                    "self_s": own / 1e9}
        return out

    def entries(self, phase: int) -> int:
        """Span calls made in ``phase`` (each adds a wrapper's cost to
        that phase's wall time)."""
        return sum(phases[phase][0] for phases in self._stats.values())

    def window_coverage(self) -> float:
        """Corrected ns of the timed windows that spans cover: the
        outermost spans, or the spans under the window's root."""
        covered, interiors, wholes = self._state[3:]
        return (covered - interiors * self.wrapper_inner_ns
                - wholes * self.wrapper_ns)


def calibrate(repeats: int = 7, calls: int = 20_000) -> Tuple[float, float]:
    """Cost of an empty wrapper in this process: (whole, interior) ns.

    ``whole`` is what a timer around a wrapped no-op sees beyond the
    bare no-op; ``interior`` is what the wrapper's own clock reads
    record beyond it.  The no-op takes the call shape of the most
    frequent span, a checked memory access (two positional arguments
    and one keyword).  Medians over ``repeats`` rounds."""
    whole, inner = [], []

    def noop(address, size, source=None):
        return None

    for __ in range(repeats):
        probe = Tracer()
        wrapped = probe.wrap("kernel.memory.access", noop)
        start = time.perf_counter_ns()
        for __ in range(calls):
            noop(0, 8, source="bpf")
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for __ in range(calls):
            wrapped(0, 8, source="bpf")
        traced = time.perf_counter_ns() - start
        recorded = probe.report()["kernel.memory.access"]["other"][
            "busy_s"] * 1e9
        whole.append((traced - bare) / calls)
        inner.append((recorded - bare) / calls)
    return statistics.median(whole), statistics.median(inner)


def self_test() -> Optional[str]:
    """Install and remove a tracer; None when every entry point was
    wrapped and then restored to the identical original object."""
    before = {(id(owner), attr): vars(owner)[attr]
              for __, owner, attr in entry_points()}
    tracer = Tracer()
    tracer.install()
    unwrapped = [attr for __, owner, attr in entry_points()
                 if not hasattr(vars(owner)[attr], MARK)]
    wrong = tracer.remove()
    changed = [attr for __, owner, attr in entry_points()
               if vars(owner)[attr] is not before[(id(owner), attr)]]
    if unwrapped or wrong or changed:
        return (f"unwrapped={unwrapped} not restored={wrong} "
                f"changed={changed}")
    return None
