"""Load by signature: a toolchain certificate stands in for the
verifier and the build only on a kernel that trusts its signer,
computes the same load key and is handed the artifacts it signed.

The program is the attack corpus's CVE-2022-23222 case, built over the
same maps on the toolchain and on the loading kernel.  It passes a
verifier that has the modeled pointer-arithmetic bug and fails one
without it, so it shows what a certificate vouches for: the verdict of
the toolchain that signed it, under the bug config that toolchain ran.
"""

import pytest

from repro.attacks.corpus import ptr_arith_or_null_prog
from repro.core.signing import SigningKey
from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.isa import R0
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progcache import certificate_image
from repro.ebpf.progs import ProgType
from repro.errors import VerifierError
from repro.kernel import Kernel

KEY = SigningKey.generate("test-toolchain")


def subsystem(bugs=None, **kwargs):
    """A fresh kernel's subsystem with the CVE case's maps created;
    returns it with the program over those maps."""
    bpf = BpfSubsystem(Kernel(), bugs=bugs, **kwargs)
    return bpf, ptr_arith_or_null_prog(bpf)


def certificate(key=KEY):
    """A certificate minted by a toolchain with the default, buggy
    ``BugConfig()``, with the artifacts it signed."""
    toolchain, insns = subsystem()
    load_key, artifacts = toolchain.certify(insns, ProgType.KPROBE)
    return key.sign(certificate_image(load_key, artifacts.digest())), \
        artifacts


def other_artifacts():
    """A toolchain's artifacts for another program."""
    other = Asm().mov64_imm(R0, 0).exit_().program()
    return BpfSubsystem(Kernel()).certify(other, ProgType.KPROBE)[1]


class TestCertify:
    def test_returns_the_load_key_and_loads_nothing(self, verify_calls):
        toolchain, insns = subsystem()
        load_key, __ = toolchain.certify(insns, ProgType.KPROBE)
        assert len(verify_calls) == 1
        assert toolchain.all_progs() == []
        assert len(toolchain.load_cache) == 0
        # the key a default load computes: the load caches under it
        toolchain.load_program(insns, ProgType.KPROBE)
        assert load_key in toolchain.load_cache._entries

    def test_rejection_raises(self):
        toolchain, insns = subsystem(BugConfig.all_patched())
        with pytest.raises(VerifierError):
            toolchain.certify(insns, ProgType.KPROBE)

    def test_builds_what_a_load_builds(self, build_calls):
        """One JIT and one predecode, through the loader's own build:
        the artifacts equal a plain load's."""
        toolchain, insns = subsystem()
        __, artifacts = toolchain.certify(insns, ProgType.KPROBE)
        assert build_calls == ["jit_compile", "predecode"]
        prog = toolchain.load_program(insns, ProgType.KPROBE)
        assert artifacts.predecoded.slots == prog.predecoded.slots
        assert artifacts.jit.insns == prog.jit.insns
        assert artifacts.digest() == \
            prog.cache_entry.artifacts.digest()


class TestLoadByCertificate:
    def test_same_config_loads_without_a_verifier_run(self,
                                                      verify_calls):
        """§3's trust shift: the planted bug passed the toolchain, so
        the certified program loads with no verifier run at all."""
        cert, artifacts = certificate()
        verify_calls.clear()
        node, insns = subsystem(trusted_key=KEY)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=artifacts)
        assert verify_calls == []
        stats = prog.verifier_stats
        assert stats.certified and not stats.from_cache
        assert stats.insns_processed == stats.states_explored == 0
        assert prog.jit is not None and prog.predecoded is not None
        assert len(node.load_cache) == 1
        assert node.kernel.log.grep("certified")

    def test_certified_load_builds_nothing_and_shares_the_tables(
            self, build_calls):
        """The node runs the toolchain's tables by reference, from a
        cache entry of its own."""
        cert, artifacts = certificate()
        build_calls.clear()
        node, insns = subsystem(trusted_key=KEY)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=artifacts)
        assert build_calls == []
        assert prog.predecoded is artifacts.predecoded
        assert prog.jit is artifacts.jit
        assert prog.cache_entry.artifacts is artifacts
        assert prog.cache_entry.compiled is None

    def test_patched_node_does_not_honour_a_buggy_toolchain(
            self, verify_calls):
        """The bug config is part of the load key: a certificate from a
        buggy toolchain does not bind on a patched kernel, whose own
        verifier runs and rejects the program."""
        cert, artifacts = certificate()
        verify_calls.clear()
        node, insns = subsystem(BugConfig.all_patched(), trusted_key=KEY)
        with pytest.raises(VerifierError):
            node.load_program(insns, ProgType.KPROBE, certificate=cert,
                              artifacts=artifacts)
        assert len(verify_calls) == 1
        assert node.all_progs() == []

    def test_no_trusted_key_verifies_anyway(self, verify_calls):
        cert, artifacts = certificate()
        verify_calls.clear()
        node, insns = subsystem()
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=artifacts)
        assert len(verify_calls) == 1
        assert not prog.verifier_stats.certified
        assert prog.verifier_stats.insns_processed > 0

    def test_foreign_signer_verifies(self, verify_calls, build_calls):
        cert, artifacts = certificate(key=SigningKey.generate("rogue"))
        verify_calls.clear()
        build_calls.clear()
        node, insns = subsystem(trusted_key=KEY)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=artifacts)
        assert len(verify_calls) == 1
        assert not prog.verifier_stats.certified
        assert build_calls == ["jit_compile", "predecode"]
        assert prog.predecoded is not artifacts.predecoded

    def test_wrong_tables_verify_and_build(self, verify_calls,
                                           build_calls):
        """A valid certificate handed another program's tables does
        not bind: their digest is not the one it signed, so the kernel
        verifies and builds, as for a foreign signer."""
        cert, __ = certificate()
        wrong = other_artifacts()
        verify_calls.clear()
        build_calls.clear()
        node, insns = subsystem(trusted_key=KEY)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=wrong)
        assert len(verify_calls) == 1
        assert not prog.verifier_stats.certified
        assert build_calls == ["jit_compile", "predecode"]
        assert prog.predecoded is not wrong.predecoded

    def test_certificate_without_artifacts_verifies(self, verify_calls,
                                                    build_calls):
        cert, __ = certificate()
        verify_calls.clear()
        build_calls.clear()
        node, insns = subsystem(trusted_key=KEY)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert)
        assert len(verify_calls) == 1
        assert not prog.verifier_stats.certified
        assert build_calls == ["jit_compile", "predecode"]

    def test_other_load_options_verify(self, verify_calls):
        """A certificate binds the default load options; a load at
        another log level computes another key and verifies."""
        cert, artifacts = certificate()
        verify_calls.clear()
        node, insns = subsystem(trusted_key=KEY)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=artifacts,
                                 log_level=2)
        assert len(verify_calls) == 1
        assert not prog.verifier_stats.certified

    def test_certificate_binds_without_a_load_cache(self, verify_calls):
        cert, artifacts = certificate()
        verify_calls.clear()
        node, insns = subsystem(trusted_key=KEY, use_load_cache=False)
        prog = node.load_program(insns, ProgType.KPROBE,
                                 certificate=cert, artifacts=artifacts)
        assert verify_calls == []
        assert prog.verifier_stats.certified

    def test_load_event_carries_certified(self):
        cert, artifacts = certificate()
        node, insns = subsystem(trusted_key=KEY)
        events = []
        node.kernel.events.subscribe(events.append, kinds=("load",))
        node.load_program(insns, ProgType.KPROBE, certificate=cert,
                          artifacts=artifacts)
        node.load_program(insns, ProgType.KPROBE)
        assert [(e.get("cache_hit"), e.get("certified"))
                for e in events] == [(False, True), (True, True)]
