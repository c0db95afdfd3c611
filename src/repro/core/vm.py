"""SafeLang execution engine.

Interprets the checked AST against the simulated kernel with all three
runtime mechanisms engaged (§3.1): the watchdog bounds run time, the
stack guard bounds recursion, and the cleanup list guarantees that any
termination — normal exit, panic, or watchdog kill — releases every
kernel resource through trusted destructors.

Extensions run under ``rcu_read_lock`` with preemption off, exactly
like eBPF programs; the difference is that a runaway extension is
*terminated by the watchdog* before the RCU stall detector would fire,
instead of spinning forever.

Integer arithmetic is checked: overflow, division by zero and
oversized shifts panic (contained), never wrap silently — Rust's
debug-profile semantics, which the paper relies on to move integer
logic out of unsafe helpers (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.kcrate.api import ApiTable
from repro.core.kcrate.resources import KernelResource
from repro.core.lang import ast
from repro.core.lang import types as T
from repro.core.runtime.cleanup import CleanupList
from repro.core.runtime.mempool import MemoryPool
from repro.core.runtime.stack import StackGuard
from repro.core.runtime.watchdog import Watchdog
from repro.recovery.domain import FaultDomain
from repro.errors import (
    ExtensionPanic,
    KernelSafetyViolation,
    StackOverflow,
    WatchdogTimeout,
)
from repro.kernel.kernel import Kernel

#: virtual nanoseconds charged per interpreted AST step
STEP_COST_NS = 2

#: errnos surfaced through RunResult.value on supervised paths
_EAGAIN = 11
_EFAULT = 14

_MOVED = object()


class Cell:
    """One variable slot."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


@dataclass
class RefVal:
    """A reference value (``&x`` / ``&mut x``)."""

    cell: Cell
    mut: bool


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: object) -> None:
        super().__init__("return")
        self.value = value


class RtEnv:
    """What the kcrate implementations see at run time."""

    def __init__(self, kernel: Kernel, prog_name: str,
                 maps: Sequence[object], cleanup: CleanupList,
                 pool: MemoryPool) -> None:
        self.kernel = kernel
        self.prog_name = prog_name
        self.maps = list(maps)
        self.cleanup = cleanup
        self.pool = pool
        self.prandom_state = 0x853C49E6748FEA9B
        #: crossings from safe code into the trusted kcrate boundary
        self.kcrate_calls = 0

    @property
    def holder(self) -> str:
        """Attribution tag for refcounts/locks."""
        return f"safelang:{self.prog_name}"

    def map_by_slot(self, slot: int):
        """Load-time-fixed map binding -> BpfMap."""
        if 0 <= slot < len(self.maps):
            return self.maps[slot]
        return None

    def register_resource(self, resource: KernelResource) -> None:
        """Record a resource for RAII + safe termination."""
        self.cleanup.register(resource)

    def panic(self, message: str) -> None:
        """Raise a contained extension panic."""
        raise ExtensionPanic(message)


@dataclass
class RunResult:
    """Outcome of one extension invocation."""

    value: int
    steps: int
    terminated: bool = False
    panicked: bool = False
    reason: str = ""
    #: crossings into the trusted kcrate boundary during the run
    kcrate_calls: int = 0


class ExtensionVm:
    """Interpreter for one loaded extension."""

    def __init__(self, kernel: Kernel, api: ApiTable,
                 watchdog_budget_ns: int = 1_000_000) -> None:
        self.kernel = kernel
        self.api = api
        self.watchdog_budget_ns = watchdog_budget_ns
        self.pool = MemoryPool(kernel, kernel.current_cpu)

    def shutdown(self) -> None:
        """Release the per-CPU pool region (framework teardown)."""
        self.pool.destroy()

    # -- public API ---------------------------------------------------------

    def run(self, program: ast.Program, prog_name: str,
            maps: Sequence[object], ctx: Optional[KernelResource],
            entry: str = "prog",
            watchdog_budget_ns: Optional[int] = None) -> RunResult:
        """Run the entry function with full runtime protection.

        Returns a :class:`RunResult`; watchdog kills and panics are
        *contained* — recorded in the result, kernel intact.

        ``watchdog_budget_ns`` overrides the VM default for this
        invocation only — the budget travels with the call rather
        than through shared VM state, so per-extension budgets stay
        correct even when one extension's run nests inside another's
        (a hook chain running two extensions, say).

        While ``telemetry.stats_enabled`` is on, the invocation is
        folded into the program's run stats (``run_cnt``,
        ``run_time_ns``, steps, kcrate crossings); watchdog fires and
        panics are counted unconditionally."""
        fn = program.function(entry)
        if fn is None:
            raise ExtensionPanic(f"no entry function {entry!r}")

        telemetry = self.kernel.telemetry
        budget = self.watchdog_budget_ns \
            if watchdog_budget_ns is None else watchdog_budget_ns
        supervisor = self.kernel.recovery
        supervised = supervisor is not None
        tag = f"safelang:{prog_name}"
        if supervised and supervisor.gate(tag):
            # breaker open: refuse the run without touching the kernel
            return RunResult(value=-_EAGAIN, steps=0,
                             reason="refused: program is quarantined")
        cleanup = CleanupList(pool=self.pool)
        rt = RtEnv(self.kernel, prog_name, maps, cleanup, self.pool)
        watchdog = Watchdog(
            self.kernel.clock, budget, name=prog_name,
            on_fire=lambda wd: telemetry.record_watchdog_fire(
                "safelang", prog_name, wd.budget_ns),
            faults=self.kernel.faults)
        guard = StackGuard()
        runner = _Runner(self, program, rt, watchdog, guard)
        # the fault domain wraps OUTSIDE the balancing finally below:
        # it snapshots entry state here and unwinds only *above* that
        # snapshot, so containment after the finally is idempotent
        domain = FaultDomain(self.kernel, tag, cleanup=cleanup,
                             pool=self.pool) if supervised else None
        contained = False

        rcu = self.kernel.rcu
        cpu = self.kernel.current_cpu
        start_ns = self.kernel.clock.now_ns
        rcu.read_lock(holder=rt.holder)
        cpu.preempt_disable()
        watchdog.arm()
        try:
            try:
                args: List[object] = [ctx] if fn.params else []
                value = runner.call_fn(fn, args)
                result = RunResult(value=_as_int(value),
                                   steps=runner.steps)
            except WatchdogTimeout as exc:
                ran = cleanup.terminate()
                result = RunResult(value=-1, steps=runner.steps,
                                   terminated=True,
                                   reason=f"{exc} ({ran} resources "
                                          "cleaned)")
            except (ExtensionPanic, StackOverflow, MemoryError) as exc:
                telemetry.record_panic("safelang", prog_name, str(exc))
                ran = cleanup.terminate()
                result = RunResult(value=-1, steps=runner.steps,
                                   panicked=True,
                                   reason=f"{exc} ({ran} resources "
                                          "cleaned)")
            finally:
                watchdog.disarm()
                cleanup.teardown()
                self.pool.reset()
                cpu.preempt_enable()
                rcu.read_unlock()
        except KernelSafetyViolation as exc:
            if domain is None:
                raise
            supervisor.contain(tag, exc, domain)
            supervisor.note_fault(
                tag, f"oops:{getattr(exc, 'category', 'oops')}")
            contained = True
            result = RunResult(value=-_EFAULT, steps=runner.steps,
                               panicked=True,
                               reason=f"contained by supervisor: "
                                      f"{exc}")
        result.kcrate_calls = rt.kcrate_calls
        if supervised and not contained:
            if result.terminated:
                supervisor.note_fault(tag, "watchdog")
            elif result.panicked:
                supervisor.note_fault(tag, "panic")
            else:
                supervisor.note_success(tag)
        if telemetry.stats_enabled:
            telemetry.record_run(
                "safelang", prog_name,
                run_time_ns=self.kernel.clock.now_ns - start_ns,
                insns=runner.steps,
                helper_calls=rt.kcrate_calls)
        return result


def _as_int(value: object) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    return 0


class _Runner:
    """Interprets one invocation."""

    def __init__(self, vm: ExtensionVm, program: ast.Program,
                 rt: RtEnv, watchdog: Watchdog,
                 guard: StackGuard) -> None:
        self.vm = vm
        self.program = program
        self.rt = rt
        self.watchdog = watchdog
        self.guard = guard
        self.steps = 0

    # -- stepping / protection ------------------------------------------------

    def _step(self) -> None:
        self.steps += 1
        self.vm.kernel.work(STEP_COST_NS)
        if self.watchdog.fired:
            raise WatchdogTimeout(
                f"extension {self.rt.prog_name!r} exceeded its "
                f"{self.watchdog.budget_ns}ns budget",
                source=self.rt.holder)

    def _panic(self, line: int, message: str) -> None:
        raise ExtensionPanic(f"line {line}: {message}")

    # -- function calls -----------------------------------------------------------

    def call_fn(self, fn: ast.FnDef, args: List[object]) -> object:
        """Invoke a user function under the stack guard."""
        frame_bytes = 64 + 16 * len(fn.params)
        self.guard.push(frame_bytes, where=fn.name)
        scope: Dict[str, Cell] = {}
        for param, arg in zip(fn.params, args):
            scope[param.name] = Cell(arg)
        scopes = [scope]
        try:
            self._exec_block(fn.body, scopes, new_scope=False)
            return None  # fell off the end: unit
        except _Return as ret:
            return ret.value
        finally:
            self._drop_scope(scopes[0])
            self.guard.pop(frame_bytes)

    # -- scopes + RAII ---------------------------------------------------------------

    def _drop_scope(self, scope: Dict[str, Cell]) -> None:
        """RAII: release resources still owned by dying bindings, in
        reverse declaration order."""
        for cell in reversed(list(scope.values())):
            value = cell.value
            if isinstance(value, KernelResource):
                value.release()
            elif isinstance(value, tuple) and value[0] == "some" \
                    and isinstance(value[1], KernelResource):
                value[1].release()
            cell.value = _MOVED

    def _exec_block(self, body: List[ast.Stmt],
                    scopes: List[Dict[str, Cell]],
                    new_scope: bool = True) -> None:
        if new_scope:
            scopes.append({})
        try:
            for stmt in body:
                self._exec_stmt(stmt, scopes)
        finally:
            if new_scope:
                self._drop_scope(scopes.pop())

    def _find_cell(self, scopes: List[Dict[str, Cell]],
                   name: str) -> Cell:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        raise ExtensionPanic(f"unknown variable {name!r}")

    # -- statements ----------------------------------------------------------------------

    def _exec_stmt(self, stmt: ast.Stmt,
                   scopes: List[Dict[str, Cell]]) -> None:
        self._step()

        if isinstance(stmt, ast.Let):
            value = self._eval(stmt.value, scopes, consume=True)
            scopes[-1][stmt.name] = Cell(value)
            return
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, scopes, consume=True)
            cell = self._find_cell(scopes, stmt.target)
            if stmt.through_ref:
                ref = cell.value
                assert isinstance(ref, RefVal)
                ref.cell.value = value
            else:
                old = cell.value
                if isinstance(old, KernelResource):
                    old.release()  # overwritten resource drops
                cell.value = value
            return
        if isinstance(stmt, ast.ExprStmt):
            value = self._eval(stmt.expr, scopes, consume=True)
            # an unbound resource temporary drops immediately
            if isinstance(value, KernelResource):
                value.release()
            elif isinstance(value, tuple) and value[0] == "some" \
                    and isinstance(value[1], KernelResource):
                value[1].release()
            return
        if isinstance(stmt, ast.If):
            cond = self._truth(self._eval(stmt.cond, scopes))
            if cond:
                self._exec_block(stmt.then_body, scopes)
            elif stmt.else_body is not None:
                self._exec_block(stmt.else_body, scopes)
            return
        if isinstance(stmt, ast.While):
            while True:
                self._step()
                if not self._truth(self._eval(stmt.cond, scopes)):
                    break
                try:
                    self._exec_block(stmt.body, scopes)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if isinstance(stmt, ast.For):
            lo = self._int(self._eval(stmt.lo, scopes))
            hi = self._int(self._eval(stmt.hi, scopes))
            index = lo
            while index < hi:
                self._step()
                scopes.append({stmt.var: Cell(index)})
                try:
                    for inner in stmt.body:
                        self._exec_stmt(inner, scopes)
                except _Break:
                    self._drop_scope(scopes.pop())
                    break
                except _Continue:
                    pass
                self._drop_scope(scopes.pop())
                index += 1
            return
        if isinstance(stmt, ast.Match):
            value = self._eval(stmt.scrutinee, scopes, consume=True)
            if isinstance(value, RefVal):
                value = value.cell.value
            if not (isinstance(value, tuple) and value[0] in
                    ("some", "none")):
                self._panic(stmt.line, "match on a non-Option value")
            if value[0] == "some":
                scopes.append({stmt.some_var: Cell(value[1])})
                try:
                    for inner in stmt.some_body:
                        self._exec_stmt(inner, scopes)
                finally:
                    self._drop_scope(scopes.pop())
            else:
                self._exec_block(stmt.none_body, scopes)
            return
        if isinstance(stmt, ast.Return):
            value = None
            if stmt.value is not None:
                value = self._eval(stmt.value, scopes, consume=True)
            raise _Return(value)
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        if isinstance(stmt, ast.DropStmt):
            cell = self._find_cell(scopes, stmt.name)
            value = cell.value
            if isinstance(value, KernelResource):
                value.release()
            cell.value = _MOVED
            return
        raise ExtensionPanic(
            f"unsupported statement {type(stmt).__name__}")

    # -- expressions -------------------------------------------------------------------------

    def _truth(self, value: object) -> bool:
        if isinstance(value, RefVal):
            value = value.cell.value
        return bool(value)

    def _int(self, value: object) -> int:
        if isinstance(value, RefVal):
            value = value.cell.value
        if isinstance(value, bool):
            return int(value)
        if not isinstance(value, int):
            raise ExtensionPanic(f"expected an integer, got "
                                 f"{type(value).__name__}")
        return value

    def _eval(self, node: ast.Expr, scopes: List[Dict[str, Cell]],
              consume: bool = False) -> object:
        self._step()

        if isinstance(node, ast.IntLit):
            return node.value
        if isinstance(node, ast.BoolLit):
            return node.value
        if isinstance(node, ast.StrLit):
            return node.value
        if isinstance(node, ast.NoneLit):
            return ("none", None)
        if isinstance(node, ast.SomeExpr):
            return ("some", self._eval(node.inner, scopes,
                                       consume=True))
        if isinstance(node, ast.Panic):
            self._panic(node.line, f"explicit panic: {node.message}")
        if isinstance(node, ast.Name):
            cell = self._find_cell(scopes, node.ident)
            value = cell.value
            if value is _MOVED:
                # borrowck should make this unreachable; containment
                # anyway
                self._panic(node.line,
                            f"use of moved value {node.ident!r}")
            if consume and node.ty is not None \
                    and not node.ty.is_copy():
                cell.value = _MOVED
            return value
        if isinstance(node, ast.Unary):
            return self._eval_unary(node, scopes)
        if isinstance(node, ast.Binary):
            return self._eval_binary(node, scopes)
        if isinstance(node, ast.Cast):
            raw = self._int(self._eval(node.operand, scopes))
            lo, hi = T.int_range(node.target)
            width = hi - lo + 1
            wrapped = (raw - lo) % width + lo
            return wrapped
        if isinstance(node, ast.Borrow):
            cell = self._find_cell(scopes, node.operand.ident)
            return RefVal(cell, node.mut)
        if isinstance(node, ast.Call):
            return self._eval_call(node, scopes)
        if isinstance(node, ast.MethodCall):
            return self._eval_method(node, scopes)
        raise ExtensionPanic(
            f"unsupported expression {type(node).__name__}")

    def _eval_unary(self, node: ast.Unary,
                    scopes: List[Dict[str, Cell]]) -> object:
        if node.op == "*":
            ref = self._eval(node.operand, scopes)
            if not isinstance(ref, RefVal):
                self._panic(node.line, "dereference of non-reference")
            return ref.cell.value
        value = self._eval(node.operand, scopes)
        if node.op == "!":
            return not self._truth(value)
        # signed negation, checked
        raw = self._int(value)
        result = -raw
        lo, hi = T.int_range(node.ty)
        if not lo <= result <= hi:
            self._panic(node.line, f"integer overflow negating {raw}")
        return result

    def _eval_binary(self, node: ast.Binary,
                     scopes: List[Dict[str, Cell]]) -> object:
        if node.op == "&&":
            return self._truth(self._eval(node.left, scopes)) and \
                self._truth(self._eval(node.right, scopes))
        if node.op == "||":
            return self._truth(self._eval(node.left, scopes)) or \
                self._truth(self._eval(node.right, scopes))

        left = self._eval(node.left, scopes)
        right = self._eval(node.right, scopes)

        if node.op in ("==", "!="):
            lhs = left.cell.value if isinstance(left, RefVal) else left
            rhs = right.cell.value if isinstance(right, RefVal) \
                else right
            return (lhs == rhs) if node.op == "==" else (lhs != rhs)

        lhs = self._int(left)
        rhs = self._int(right)
        if node.op in ("<", "<=", ">", ">="):
            return {"<": lhs < rhs, "<=": lhs <= rhs,
                    ">": lhs > rhs, ">=": lhs >= rhs}[node.op]

        # checked arithmetic on node.ty
        ty = node.ty
        lo, hi = T.int_range(ty)
        if node.op == "+":
            result = lhs + rhs
        elif node.op == "-":
            result = lhs - rhs
        elif node.op == "*":
            result = lhs * rhs
        elif node.op == "/":
            if rhs == 0:
                self._panic(node.line, "division by zero")
            result = int(lhs / rhs) if (lhs < 0) != (rhs < 0) \
                else lhs // rhs
        elif node.op == "%":
            if rhs == 0:
                self._panic(node.line, "remainder by zero")
            result = lhs - rhs * (int(lhs / rhs) if (lhs < 0) != (rhs < 0)
                                  else lhs // rhs)
        elif node.op == "&":
            return lhs & rhs if lhs >= 0 and rhs >= 0 \
                else (lhs & hi) & (rhs & hi)
        elif node.op == "|":
            return (lhs | rhs) if lhs >= 0 and rhs >= 0 \
                else ((lhs & hi) | (rhs & hi))
        elif node.op == "^":
            return (lhs ^ rhs) if lhs >= 0 and rhs >= 0 \
                else ((lhs ^ rhs) & hi)
        elif node.op in ("<<", ">>"):
            width = 64 if ty.name.endswith("64") else \
                (32 if ty.name.endswith("32") else 8)
            if rhs >= width or rhs < 0:
                self._panic(node.line, f"shift by {rhs} exceeds the "
                            f"{width}-bit width")
            result = (lhs << rhs) if node.op == "<<" else (lhs >> rhs)
        else:
            self._panic(node.line, f"unknown operator {node.op!r}")
        if not lo <= result <= hi:
            self._panic(node.line,
                        f"integer overflow: {lhs} {node.op} {rhs} "
                        f"out of {ty!r} range")
        return result

    def _eval_call(self, node: ast.Call,
                   scopes: List[Dict[str, Cell]]) -> object:
        api_fn = self.vm.api.functions.get(node.func)
        if api_fn is not None:
            args = [self._eval(arg, scopes, consume=True)
                    for arg in node.args]
            self.rt.kcrate_calls += 1
            telemetry = self.vm.kernel.telemetry
            if telemetry.stats_enabled:
                telemetry.record_helper("safelang", self.rt.prog_name,
                                        node.func)
            self.vm.kernel.work(api_fn.cost)
            resolved = [a.cell.value if isinstance(a, RefVal) else a
                        for a in args]
            return api_fn.impl(self.rt, *resolved)
        fn = self.program.function(node.func)
        if fn is None:
            self._panic(node.line, f"unknown function {node.func!r}")
        args = [self._eval(arg, scopes, consume=True)
                for arg in node.args]
        return self.call_fn(fn, args)

    def _eval_method(self, node: ast.MethodCall,
                     scopes: List[Dict[str, Cell]]) -> object:
        receiver = self._eval(node.receiver, scopes)
        if isinstance(receiver, RefVal):
            receiver = receiver.cell.value
        # built-in Option combinators
        if isinstance(receiver, tuple) and receiver \
                and receiver[0] in ("some", "none"):
            if node.method == "is_some":
                return receiver[0] == "some"
            if node.method == "is_none":
                return receiver[0] == "none"
            if node.method == "unwrap_or":
                default = self._eval(node.args[0], scopes,
                                     consume=True)
                return receiver[1] if receiver[0] == "some" \
                    else default
        method = self.vm.api.method_for(node.receiver.ty, node.method)
        if method is None:
            self._panic(node.line, f"unknown method {node.method!r}")
        args = [self._eval(arg, scopes, consume=True)
                for arg in node.args]
        resolved = [a.cell.value if isinstance(a, RefVal) else a
                    for a in args]
        telemetry = self.vm.kernel.telemetry
        if telemetry.stats_enabled:
            telemetry.record_helper(
                "safelang", self.rt.prog_name,
                f"{node.receiver.ty}::{node.method}")
        self.vm.kernel.work(method.cost)
        return method.impl(self.rt, receiver, *resolved)
