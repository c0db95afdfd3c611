"""Repo-wide fixtures: kernel isolation (leak) checking.

The fault-injection work factored the framework's teardown contract
into :mod:`repro.faultinject.invariants`; these fixtures apply that
same contract to ordinary tests, so a test that leaks a reference,
leaves RCU held, or forgets a pool reset fails loudly instead of
silently polluting a kernel that is about to be garbage-collected
anyway.

Tests that *deliberately* leave a kernel unbalanced (attack replays,
teardown-order tests) opt out with ``@pytest.mark.dirty_kernel``.

``verify_calls`` counts verifier runs, for the tests that check a
load was certified rather than verified, and ``build_calls`` counts
the loader's JIT and predecode calls, for the tests that check a load
ran on artifacts built elsewhere.
"""

import pytest

from repro.ebpf import loader
from repro.ebpf.verifier.analyzer import Verifier
from repro.faultinject.invariants import kernel_violations


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "dirty_kernel: test intentionally leaves the kernel "
        "unbalanced; skip the teardown isolation check")


def assert_kernel_isolated(kernel):
    """Fail the calling test if the kernel's transient extension
    state is unbalanced or it died outside the official panic path."""
    violations = kernel_violations(kernel)
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


@pytest.fixture
def verify_calls(monkeypatch):
    """Every ``Verifier.verify`` run during the test, in order."""
    calls = []
    original = Verifier.verify

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Verifier, "verify", counted)
    return calls


@pytest.fixture
def build_calls(monkeypatch):
    """Every ``jit_compile`` and ``predecode`` call the loader makes
    (a toolchain's ``certify`` included) during the test, by name, in
    order."""
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("jit_compile", "predecode"):
        monkeypatch.setattr(loader, name,
                            counted(name, getattr(loader, name)))
    return calls
