"""Release registry: content hashing, signing, tamper rejection."""

import dataclasses

import pytest

from repro.core.signing import SigningKey
from repro.ebpf.progcache import insns_digest
from repro.ebpf.progs import ProgType
from repro.fleet import ReleaseRegistry
from repro.net.programs import pass_all_prog, port_filter_prog


@pytest.fixture
def registry(toolchain):
    """A fresh registry with the deterministic toolchain key."""
    return ReleaseRegistry(toolchain)


class TestPublish:
    def test_publish_hashes_and_signs(self, registry):
        release = registry.publish("fw", "1.0.0", pass_all_prog(),
                                   ProgType.XDP)
        assert release.release_id == "fw@1.0.0"
        assert release.content_hash == insns_digest(pass_all_prog())
        assert release.key_id == registry.key.key_id
        assert registry.verify(release)

    def test_publish_is_deterministic(self, toolchain):
        a = ReleaseRegistry(toolchain).publish(
            "fw", "1.0.0", pass_all_prog(), ProgType.XDP)
        b = ReleaseRegistry(toolchain).publish(
            "fw", "1.0.0", pass_all_prog(), ProgType.XDP)
        assert a.signature == b.signature
        assert a.content_hash == b.content_hash

    def test_republish_same_content_is_idempotent(self, registry):
        a = registry.publish("fw", "1.0.0", pass_all_prog(),
                             ProgType.XDP)
        b = registry.publish("fw", "1.0.0", pass_all_prog(),
                             ProgType.XDP)
        assert a is b
        assert len(registry.releases()) == 1

    def test_republish_different_content_refused(self, registry):
        registry.publish("fw", "1.0.0", pass_all_prog(), ProgType.XDP)
        with pytest.raises(ValueError, match="already published"):
            registry.publish("fw", "1.0.0", port_filter_prog(),
                             ProgType.XDP)

    def test_unknown_release_is_loud(self, registry):
        with pytest.raises(KeyError, match="unknown release"):
            registry.get("fw@9.9.9")


class TestVerify:
    def test_tampered_bytecode_fails_verification(self, registry):
        release = registry.publish("fw", "1.0.0", pass_all_prog(),
                                   ProgType.XDP)
        forged = dataclasses.replace(
            release, insns=tuple(port_filter_prog()))
        assert not registry.verify(forged)

    def test_version_swap_fails_verification(self, registry):
        """A valid signature lifted onto another version is refused:
        the signed image binds name@version, not just bytes."""
        v1 = registry.publish("fw", "1.0.0", pass_all_prog(),
                              ProgType.XDP)
        forged = dataclasses.replace(v1, version="2.0.0")
        assert not registry.verify(forged)

    def test_foreign_key_fails_verification(self, registry, toolchain):
        release = registry.publish("fw", "1.0.0", pass_all_prog(),
                                   ProgType.XDP)
        other = ReleaseRegistry(
            toolchain, key=SigningKey.generate("rogue-toolchain"))
        assert not other.verify(release)
