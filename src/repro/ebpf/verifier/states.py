"""Whole-program verifier state and explored-state pruning.

A :class:`VerifierState` is the full abstract machine state at one
program point: the frame stack (registers + stack slots per frame),
the set of acquired references, the active spin lock, and the proven
packet range.  :class:`ExploredStates` implements the kernel's
``is_state_visited`` pruning: a new state at an instruction already
covered by a previously explored, safe state need not be walked again
— without this, verification time explodes with branch count (one of
the ablations in the verification-cost benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ebpf.verifier.regstate import FuncFrame, RegType, SlotKind


@dataclass
class AcquiredRef:
    """One helper-acquired reference awaiting release."""

    ref_id: int
    kind: str          # e.g. "socket", "ringbuf_mem"
    acquired_at: int   # instruction index, for error messages


class VerifierState:
    """Complete abstract state of the program at one point."""

    def __init__(self) -> None:
        self.frames: List[FuncFrame] = [FuncFrame.fresh()]
        self.acquired_refs: List[AcquiredRef] = []
        #: map fd whose embedded bpf_spin_lock is held, else None
        self.active_spin_lock: Optional[int] = None
        #: bytes of packet proven accessible by bounds checks
        self.packet_range: int = 0
        #: id allocator for or-null identities and references
        self.next_id: int = 1

    @property
    def cur(self) -> FuncFrame:
        """The innermost (current) frame."""
        return self.frames[-1]

    def new_id(self) -> int:
        """Allocate a fresh identity."""
        value = self.next_id
        self.next_id += 1
        return value

    def acquire_ref(self, kind: str, insn_idx: int) -> int:
        """Record a newly acquired reference; returns its id."""
        ref_id = self.new_id()
        self.acquired_refs.append(AcquiredRef(ref_id, kind, insn_idx))
        return ref_id

    def release_ref(self, ref_id: int) -> bool:
        """Drop a reference; False if it was not held."""
        for index, ref in enumerate(self.acquired_refs):
            if ref.ref_id == ref_id:
                del self.acquired_refs[index]
                return True
        return False

    def copy(self) -> "VerifierState":
        """Fork the state for branch exploration."""
        state = VerifierState.__new__(VerifierState)
        state.frames = [f.copy() for f in self.frames]
        state.acquired_refs = [AcquiredRef(r.ref_id, r.kind, r.acquired_at)
                               for r in self.acquired_refs]
        state.active_spin_lock = self.active_spin_lock
        state.packet_range = self.packet_range
        state.next_id = self.next_id
        return state

    def state_key(self) -> tuple:
        """Hashable exact-equality key (infinite-loop detection)."""
        return (tuple(f.state_key() for f in self.frames),
                tuple((r.ref_id, r.kind) for r in self.acquired_refs),
                self.active_spin_lock,
                self.packet_range)

    def subsumes(self, other: "VerifierState") -> bool:
        """``states_equal`` with range inclusion: does exploring from
        ``self`` prove everything ``other`` could do safe?"""
        if len(self.frames) != len(other.frames):
            return False
        if self.active_spin_lock != other.active_spin_lock:
            return False
        if self.packet_range > other.packet_range:
            # other has proven *less* packet accessible; covered only
            # if self assumed no more than other
            return False
        if len(self.acquired_refs) != len(other.acquired_refs):
            return False
        for mine, theirs in zip(self.acquired_refs, other.acquired_refs):
            if mine.kind != theirs.kind:
                return False
        for my_frame, their_frame in zip(self.frames, other.frames):
            if my_frame.callsite != their_frame.callsite:
                return False
            if my_frame.in_callback != their_frame.in_callback:
                return False
            for my_reg, their_reg in zip(my_frame.regs, their_frame.regs):
                if my_reg.type is RegType.NOT_INIT:
                    continue  # we didn't rely on it; anything is fine
                if not my_reg.subsumes(their_reg):
                    return False
            # every stack slot we relied on must be covered
            for slot_index, my_slot in my_frame.stack.items():
                their_slot = their_frame.stack.get(slot_index)
                if my_slot.kind is SlotKind.INVALID:
                    continue
                if their_slot is None:
                    return False
                if my_slot.kind != their_slot.kind:
                    return False
                if my_slot.reg is not None:
                    if their_slot.reg is None \
                            or not my_slot.reg.subsumes(their_slot.reg):
                        return False
        return True


class ExploredStates:
    """Explored-state lists per instruction, with pruning stats."""

    def __init__(self, enabled: bool = True,
                 max_states_per_insn: int = 64) -> None:
        self.enabled = enabled
        self.max_states_per_insn = max_states_per_insn
        self._by_insn: Dict[int, List[VerifierState]] = {}
        self.prune_hits = 0
        self.states_stored = 0

    def is_covered(self, insn_idx: int, state: VerifierState) -> bool:
        """True if an already-explored state covers ``state``."""
        if not self.enabled:
            return False
        for seen in self._by_insn.get(insn_idx, ()):
            if seen.subsumes(state):
                self.prune_hits += 1
                return True
        return False

    def room(self, insn_idx: int) -> int:
        """How many more states ``insn_idx`` can store (none when
        pruning is off).  Lists only grow, so a snapshot beyond this
        room can never be remembered."""
        if not self.enabled:
            return 0
        stored = self._by_insn.get(insn_idx, ())
        return self.max_states_per_insn - len(stored)

    def remember(self, insn_idx: int, state: VerifierState) -> None:
        """Record a state about to be explored from ``insn_idx``.  The
        state is kept, not copied: it is a snapshot nothing else holds,
        and explored states are never mutated."""
        if not self.enabled:
            return
        bucket = self._by_insn.setdefault(insn_idx, [])
        if len(bucket) < self.max_states_per_insn:
            bucket.append(state)
            self.states_stored += 1

    @property
    def max_per_insn(self) -> int:
        """Length of the longest per-instruction state list."""
        return max(map(len, self._by_insn.values()), default=0)
