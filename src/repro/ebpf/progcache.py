"""Content-hash-keyed program load cache.

The paper's §3 argument is that load-time validation should be cheap:
a signature check over the bytes, not a symbolic re-execution of the
program.  This cache gives the simulated loader the same shape —
reloading bytecode the verifier has already accepted under the same
configuration is a hash lookup, skipping verification, JIT compilation
and predecoding entirely.

The key is a SHA-256 over everything that can change the verifier's
answer or the generated artifacts:

* every instruction field (opcode, dst, src, off, imm),
* the program type,
* the verifier configuration (limits, injected bugs, ptr-leak policy,
  state pruning, log level),
* whether the JIT is in use (and the JIT's bug knobs ride along with
  the config's ``bugs``),
* a fingerprint of every map the loader has handed out an fd for —
  map shape feeds the verifier's access checks, so two loads of the
  same bytecode against differently-shaped maps must not collide.

Only *accepted* programs are cached.  Rejections are re-derived on
every load: a rejection is cheap to reproduce (the verifier bails
early), and callers probing the verifier (the attack corpus, the
experiments) expect a fresh log each time.

The same key is what a trusted toolchain's load certificate signs
(:func:`certificate_image`), beside the digest of the artifacts the
toolchain built (:meth:`LoadArtifacts.digest`): because the key covers
every input of the verdict and of the build, a certificate binds one
exact load and one exact build, and a kernel that computes any other
key for its load, or is handed other artifacts, cannot use it (see
:meth:`repro.ebpf.loader.BpfSubsystem.load_program`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from typing import Iterable, NamedTuple, Optional, Tuple


class LoadArtifacts(NamedTuple):
    """What an accepted load builds: the JIT output (None without the
    JIT) and the dispatch table over what runs.  Immutable, so one
    build can serve every kernel whose load key matches, each by
    reference."""

    jit: Optional[object]
    predecoded: object

    def digest(self) -> str:
        """SHA-256 over the JIT output and the predecoded slots: what
        a load certificate binds beside the load key, re-hashed by
        whoever is handed the artifacts."""
        h = hashlib.sha256()
        if self.jit is not None:
            h.update(f"jit={insns_digest(self.jit.insns)}"
                     f"|miscompiled={self.jit.miscompiled!r}|".encode())
        h.update(f"slots={self.predecoded.slots!r}".encode())
        return h.hexdigest()


@dataclasses.dataclass
class CachedLoad:
    """One accepted load on one kernel: its verifier stats, the
    artifacts it runs (shared with whatever built them), and the
    exec-compiled frame function once the VM has compiled a program
    loaded through this entry — the content hash already keys
    everything compilation depends on, so a reload starts compiled.
    The compiled artifact stays on this entry: ``artifacts`` may be a
    release's, which nothing on a node writes into."""

    # by hand: ``dataclass(slots=True)`` needs Python 3.10
    __slots__ = ("stats", "artifacts", "compiled")

    stats: object
    artifacts: LoadArtifacts
    compiled: Optional[object]

    def stats_copy(self) -> object:
        """A per-load copy of the verifier stats, marked as a cache
        hit so callers can tell replayed stats from fresh ones."""
        return dataclasses.replace(self.stats, log=list(self.stats.log),
                                   from_cache=True)


class ProgramLoadCache:
    """LRU cache of accepted loads, keyed by content hash."""

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CachedLoad]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, key: str) -> Optional[CachedLoad]:
        """The cached load for ``key``, counting a hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, key: str, entry: CachedLoad) -> None:
        """Cache an accepted load, evicting LRU entries over the cap."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()


def _maps_fingerprint(maps: Iterable[Tuple[int, object]]) -> str:
    parts = []
    for fd, bpf_map in sorted(maps, key=lambda item: item[0]):
        parts.append(
            f"{fd}:{type(bpf_map).__name__}"
            f":{getattr(bpf_map, 'key_size', 0)}"
            f":{getattr(bpf_map, 'value_size', 0)}"
            f":{getattr(bpf_map, 'max_entries', 0)}"
            f":{int(getattr(bpf_map, 'spin_lock', None) is not None)}")
    return "|".join(parts)


def insns_digest(insns: Iterable[object]) -> str:
    """SHA-256 over every instruction field — the bytecode half of the
    cache key, and the content hash the fleet's release registry signs
    (one serialization, so a signed release and a cached load agree on
    what "the same program" means)."""
    h = hashlib.sha256()
    for insn in insns:
        h.update(f"{insn.opcode},{insn.dst},{insn.src},"
                 f"{insn.off},{insn.imm};".encode())
    return h.hexdigest()


def certificate_image(load_key: str, artifact_digest: str) -> bytes:
    """What a load certificate signs: a load key and the digest of the
    artifacts built for it, under their own domain tag, so a
    certificate never verifies as any other signature."""
    return f"load:{load_key}:{artifact_digest}".encode()


def fingerprint(insns: Iterable[object], prog_type: object,
                config: object, maps: Iterable[Tuple[int, object]],
                use_jit: bool) -> str:
    """Content hash of one load request (see module docstring)."""
    h = hashlib.sha256()
    h.update(insns_digest(insns).encode())
    h.update(f"|type={getattr(prog_type, 'value', prog_type)}".encode())
    h.update(f"|jit={use_jit}".encode())
    h.update(f"|leaks={config.allow_ptr_leaks}".encode())
    h.update(f"|prune={config.prune_states}".encode())
    h.update(f"|log={config.log_level}".encode())
    h.update(f"|limits={config.limits!r}".encode())
    h.update(f"|bugs={config.bugs!r}".encode())
    h.update(f"|maps={_maps_fingerprint(maps)}".encode())
    return h.hexdigest()
