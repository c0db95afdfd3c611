"""Signed release images: the fleet's unit of deployment.

§3.1's trusted toolchain checks and signs an extension once; every
kernel then checks the signature instead of re-verifying the program.
A :class:`Release` is that signed artifact at fleet scale: a named,
versioned bytecode image whose content hash (the same per-instruction
serialization the load cache keys on —
:func:`repro.ebpf.progcache.insns_digest`) is bound to its name and
version and HMAC-signed by the registry's
:class:`~repro.core.signing.SigningKey`.  Nodes hold the public half
(here: the same deterministic key) and refuse anything that does not
verify — a tampered image or a signature lifted from another version
both fail closed.

``publish`` is the toolchain's check and build.  It verifies the
bytecode once, on a subsystem booted from the fleet's node image,
builds its JIT output and dispatch table once, keeps them on the
release with their digest, and signs a load certificate over the load
key the toolchain verified under plus that digest.  A node whose
kernel trusts the registry key and computes that same key for its own
load runs the release's artifacts by reference, with no verifier or
JIT of its own; any node whose verdict inputs differ computes another
key and verifies and builds the release itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.signing import SigningKey
from repro.ebpf.progcache import LoadArtifacts, certificate_image, \
    insns_digest


@dataclass(frozen=True)
class Release:
    """One immutable, signed extension release."""

    #: extension name (the program tag on every node is ``bpf:name``,
    #: stable across versions so the supervisor's history follows the
    #: extension, not the image)
    name: str
    #: version string; ``name@version`` identifies the release
    version: str
    #: program type value (e.g. ``"xdp"``)
    prog_type: object
    #: the bytecode image
    insns: Tuple[object, ...]
    #: SHA-256 over the instruction fields (see
    #: :func:`~repro.ebpf.progcache.insns_digest`)
    content_hash: str
    #: the toolchain's JIT output and dispatch table, immutable and
    #: shared by every node that loads them
    artifacts: LoadArtifacts = field(compare=False, repr=False)
    #: SHA-256 over ``artifacts``
    #: (:meth:`~repro.ebpf.progcache.LoadArtifacts.digest`)
    artifact_digest: str
    #: HMAC-SHA256 over the load key the toolchain verified under plus
    #: ``artifact_digest``
    #: (:func:`~repro.ebpf.progcache.certificate_image`)
    certificate: str
    #: id of the key that signed this release
    key_id: str
    #: HMAC-SHA256 over :meth:`image_bytes`
    signature: str

    @property
    def release_id(self) -> str:
        """The canonical ``name@version`` identifier."""
        return f"{self.name}@{self.version}"

    def image_bytes(self) -> bytes:
        """The canonical signed image: name, version, content hash,
        artifact digest and load certificate — binding the signature
        to *this* version of *this* extension, not just to the
        bytes."""
        return (f"{self.name}@{self.version}:"
                f"{getattr(self.prog_type, 'value', self.prog_type)}:"
                f"{self.content_hash}:{self.artifact_digest}:"
                f"{self.certificate}").encode()

    def verify(self, key: SigningKey) -> bool:
        """True when the content hash matches the bytecode and the
        artifact digest the artifacts (re-hashed, so bytecode or
        tables swapped under a valid signature are caught) *and* the
        signature checks out against ``key``."""
        if insns_digest(self.insns) != self.content_hash \
                or self.artifacts.digest() != self.artifact_digest:
            return False
        return key.verify(self.image_bytes(), self.signature)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary (no bytecode)."""
        return {
            "release_id": self.release_id,
            "prog_type": getattr(self.prog_type, "value",
                                 self.prog_type),
            "insns": len(self.insns),
            "content_hash": self.content_hash,
            "artifact_digest": self.artifact_digest,
            "key_id": self.key_id,
            "signature": self.signature,
            "certificate": self.certificate,
        }


class ReleaseRegistry:
    """The trusted toolchain's release store.

    ``publish`` verifies, builds, certifies and signs; ``verify`` is
    what the orchestrator runs against the registry key before it
    wastes a rollout on a forgery (each node runs the same
    :meth:`Release.verify` against the key it trusts).  Deterministic:
    the same name, version and bytecode always produce the same signed
    release.
    """

    def __init__(self, toolchain: object,
                 key: Optional[SigningKey] = None) -> None:
        """Create a registry over ``toolchain``, an eBPF subsystem
        booted from the fleet's node image (anything with
        ``certify(insns, prog_type) -> (load key, artifacts)``); ``key``
        defaults to
        the deterministic fleet toolchain key."""
        self.toolchain = toolchain
        self.key = key or SigningKey.generate("fleet-toolchain")
        self._releases: Dict[str, Release] = {}

    def publish(self, name: str, version: str,
                insns: Sequence[object],
                prog_type: object) -> Release:
        """Verify, build, certify, sign and store one release;
        returns it.

        A program the toolchain rejects raises its
        :class:`~repro.errors.VerifierError` and nothing is stored.
        Re-publishing an existing ``name@version`` returns the stored
        release without a second toolchain run, and with different
        content it is refused — releases are immutable."""
        content_hash = insns_digest(insns)
        existing = self._releases.get(f"{name}@{version}")
        if existing is not None:
            if existing.content_hash != content_hash \
                    or existing.prog_type != prog_type:
                raise ValueError(
                    f"release {existing.release_id} already published "
                    "with different content")
            return existing
        load_key, artifacts = self.toolchain.certify(insns, prog_type)
        digest = artifacts.digest()
        release = Release(
            name=name, version=version, prog_type=prog_type,
            insns=tuple(insns), content_hash=content_hash,
            artifacts=artifacts, artifact_digest=digest,
            certificate=self.key.sign(
                certificate_image(load_key, digest)),
            key_id=self.key.key_id, signature="")
        release = replace(
            release, signature=self.key.sign(release.image_bytes()))
        self._releases[release.release_id] = release
        return release

    def get(self, release_id: str) -> Release:
        """Look up a release by ``name@version``; raises ``KeyError``
        with the known ids when absent."""
        release = self._releases.get(release_id)
        if release is None:
            raise KeyError(
                f"unknown release {release_id!r}; published: "
                f"{sorted(self._releases) or 'none'}")
        return release

    def verify(self, release: Release) -> bool:
        """True when the release checks out against the registry key
        (see :meth:`Release.verify`)."""
        return release.verify(self.key)

    def releases(self) -> List[Release]:
        """Every published release, in publish order."""
        return list(self._releases.values())
