"""Deterministic SMP scheduler: determinism, scripting, migration."""

import pytest

from repro.errors import KernelDeadlock
from repro.kernel import Kernel
from repro.kernel.smp import (
    RoundRobin,
    ScriptedInterleaving,
    SeededInterleaving,
    SmpScheduler,
)


def yielder(smp, events, name, steps=3):
    """A task body that yields ``steps`` times, logging each step."""
    def body():
        for step in range(steps):
            events.append(f"{name}:{step}")
            smp.yield_point("helper", f"{name}:{step}")
        return name
    return body


def run_two(seed, nr_cpus=2, schedule=None):
    """Two yielding tasks on two CPUs; returns (events, scheduler)."""
    kernel = Kernel(nr_cpus=nr_cpus)
    smp = SmpScheduler(kernel, schedule=schedule, seed=seed)
    events = []
    smp.spawn(yielder(smp, events, "a"), cpu=0, name="a")
    smp.spawn(yielder(smp, events, "b"), cpu=1 % nr_cpus, name="b")
    smp.run()
    return events, smp


class TestDeterminism:
    def test_same_seed_identical_trace_and_order(self):
        events1, smp1 = run_two(seed=7)
        events2, smp2 = run_two(seed=7)
        assert events1 == events2
        assert smp1.trace == smp2.trace
        assert smp1.trace_signature() == smp2.trace_signature()

    def test_seeds_explore_different_interleavings(self):
        signatures = {run_two(seed=s)[1].trace_signature()
                      for s in range(8)}
        assert len(signatures) > 1

    def test_results_in_spawn_order(self):
        kernel = Kernel(nr_cpus=2)
        smp = SmpScheduler(kernel, seed=3)
        smp.spawn(lambda: "first", cpu=0)
        smp.spawn(lambda: "second", cpu=1)
        assert smp.run() == ["first", "second"]

    def test_single_cpu_serializes_fifo(self):
        """With one CPU both tasks queue on it: strict FIFO, no
        interleaving regardless of seed."""
        for seed in range(4):
            events, smp = run_two(seed=seed, nr_cpus=1)
            assert events == ["a:0", "a:1", "a:2",
                              "b:0", "b:1", "b:2"]
            assert smp.switches == 1

    def test_empty_run_is_noop(self):
        smp = SmpScheduler(Kernel(nr_cpus=2))
        assert smp.run() == []


class TestScriptedInterleaving:
    def test_script_forces_exact_alternation(self):
        # decision 1 is the start pick; then each helper yield is one
        # decision.  Alternate CPUs strictly.
        script = ScriptedInterleaving([0, 1, 0, 1, 0, 1, 0])
        events, smp = run_two(seed=0, schedule=script)
        assert events == ["a:0", "b:0", "a:1", "b:1", "a:2", "b:2"]

    def test_script_replays_a_seeded_run(self):
        """Extracting the chosen-CPU column of a seeded trace and
        replaying it as a script reproduces the same interleaving."""
        events1, smp1 = run_two(seed=11)
        choices = [entry[5] for entry in smp1.trace]
        script = ScriptedInterleaving(choices)
        events2, smp2 = run_two(seed=99, schedule=script)
        assert events2 == events1

    def test_scripted_migration_moves_task(self):
        kernel = Kernel(nr_cpus=2)
        # decision 2 is the lone task's first yield: migrate it there
        schedule = ScriptedInterleaving([0, 1, 1, 1, 1],
                                        migrations={2: 1})
        smp = SmpScheduler(kernel, schedule=schedule)
        cpus_seen = []
        def body():
            for step in range(2):
                smp.yield_point("helper", str(step))
                cpus_seen.append(kernel.current_cpu.cpu_id)
        task = smp.spawn(body, cpu=0, name="mover")
        smp.run()
        assert task.migrations == 1
        assert task.cpu_id == 1
        assert cpus_seen == [1, 1]
        assert any(entry[1] == "migrate" for entry in smp.trace)

    def test_roundrobin_cycles(self):
        events, smp = run_two(seed=0, schedule=RoundRobin())
        assert smp.trace_signature() == \
            run_two(seed=5, schedule=RoundRobin())[1].trace_signature()


class TestSchedulerMechanics:
    def test_live_spawn_runs_to_completion(self):
        kernel = Kernel(nr_cpus=2)
        smp = SmpScheduler(kernel, seed=2)
        results = []
        def parent():
            smp.spawn(lambda: results.append("child"), cpu=1,
                      name="child")
            smp.yield_point("helper", "after-spawn")
            return "parent"
        smp.spawn(parent, cpu=0, name="parent")
        smp.run()
        assert results == ["child"]

    def test_send_ipi_targets_cpu(self):
        kernel = Kernel(nr_cpus=4)
        smp = SmpScheduler(kernel, seed=0)
        where = []
        def sender():
            smp.send_ipi(3, lambda: where.append(
                kernel.current_cpu.cpu_id), name="ipi-fn")
        smp.spawn(sender, cpu=0, name="sender")
        smp.run()
        assert where == [3]
        assert any(entry[1] == "ipi" for entry in smp.trace)

    def test_atomic_scope_suppresses_yields(self):
        kernel = Kernel(nr_cpus=2)
        smp = SmpScheduler(kernel, seed=0)
        def body():
            before = smp._decisions
            with smp.atomic_scope():
                smp.yield_point("helper", "inside")
                smp.yield_point("helper", "inside2")
            assert smp._decisions == before
        smp.spawn(body, cpu=0)
        smp.run()

    def test_wait_until_resumes_on_condition(self):
        kernel = Kernel(nr_cpus=2)
        smp = SmpScheduler(kernel, seed=4)
        box = {"ready": False}
        order = []
        def waiter():
            smp.wait_until(lambda: box["ready"], "box")
            order.append("woke")
        def setter():
            smp.yield_point("helper", "pre")
            box["ready"] = True
            order.append("set")
        smp.spawn(waiter, cpu=0, name="waiter")
        smp.spawn(setter, cpu=1, name="setter")
        smp.run()
        assert order == ["set", "woke"]

    def test_switch_and_telemetry_counters(self):
        events, smp = run_two(seed=7)
        assert smp.switches > 0
        family = smp.kernel.telemetry._smp_switches
        samples = dict(family.samples())
        assert samples[()].value == smp.switches

    def test_task_exception_reraised_after_run(self):
        kernel = Kernel(nr_cpus=2)
        smp = SmpScheduler(kernel, seed=0)
        def boom():
            raise ValueError("task bug")
        smp.spawn(boom, cpu=0)
        smp.spawn(lambda: None, cpu=1)
        with pytest.raises(ValueError, match="task bug"):
            smp.run()


class TestDeadlock:
    def test_unwakeable_wait_is_deadlock_through_panic_path(self):
        kernel = Kernel(nr_cpus=2)
        smp = SmpScheduler(kernel, seed=0)
        smp.spawn(lambda: smp.wait_until(lambda: False, "never"),
                  cpu=0, name="stuck")
        smp.spawn(lambda: None, cpu=1, name="quick")
        with pytest.raises(KernelDeadlock):
            smp.run()
        assert kernel.log.tainted
        oops = kernel.log.last_oops()
        assert oops.category == "deadlock"
        assert oops.source == "smp"
        assert "SMP deadlock" in oops.reason

    def test_deadlock_is_deterministic(self):
        def once():
            kernel = Kernel(nr_cpus=2)
            smp = SmpScheduler(kernel, seed=5)
            smp.spawn(lambda: smp.wait_until(lambda: False, "never"),
                      cpu=0)
            smp.spawn(lambda: smp.yield_point("helper", "x"), cpu=1)
            with pytest.raises(KernelDeadlock):
                smp.run()
            return smp.trace_signature()
        assert once() == once()
