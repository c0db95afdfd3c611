"""Repo-wide fixtures: kernel isolation (leak) checking.

The fault-injection work factored the framework's teardown contract
into :mod:`repro.faultinject.invariants`; these fixtures apply that
same contract to ordinary tests, so a test that leaks a reference,
leaves RCU held, or forgets a pool reset fails loudly instead of
silently polluting a kernel that is about to be garbage-collected
anyway.

Tests that *deliberately* leave a kernel unbalanced (attack replays,
teardown-order tests) opt out with ``@pytest.mark.dirty_kernel``.
"""

import pytest

from repro.faultinject.invariants import (
    collect_violations,
    panic_path_consistent,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "dirty_kernel: test intentionally leaves the kernel "
        "unbalanced; skip the teardown isolation check")


def assert_kernel_isolated(kernel):
    """Fail the calling test if the kernel's transient extension
    state is unbalanced or it died outside the official panic path."""
    violations = collect_violations(kernel)
    if not panic_path_consistent(kernel):
        violations.append(
            f"taint/oops mismatch (tainted={kernel.log.tainted}, "
            f"oopses={len(kernel.log.oopses)})")
    assert not violations, \
        "kernel isolation violated:\n" + "\n".join(violations)


def watch_stack_frames(mem):
    """Wrap ``mem.kmalloc`` to check, at every eBPF stack allocation,
    that no two live frames share a base.  Returns the list the stack
    frames are appended to, in allocation order."""
    frames = []
    kmalloc = mem.kmalloc

    def checked(size, type_name="void", owner="kernel"):
        alloc = kmalloc(size, type_name=type_name, owner=owner)
        if type_name == "bpf_stack":
            bases = [a.base for a in mem.live_allocations()
                     if a.type_name == "bpf_stack"]
            assert len(bases) == len(set(bases)), bases
            frames.append(alloc)
        return alloc

    mem.kmalloc = checked
    return frames


@pytest.fixture
def leakcheck(request):
    """Collect kernels to invariant-check when the test ends.

    Usage::

        def test_something(leakcheck):
            kernel = Kernel()
            leakcheck(kernel)
            ...  # kernel checked at teardown
    """
    kernels = []
    yield kernels.append
    if request.node.get_closest_marker("dirty_kernel"):
        return
    for kernel in kernels:
        assert_kernel_isolated(kernel)
