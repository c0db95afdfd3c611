"""Synthetic kernel function database and static call graph.

Figure 3 of the paper measures, for each of the 249 helper functions in
Linux 5.18, the number of unique nodes in its static call graph — from
0 (``bpf_get_current_pid_tgid``) to 4845 (``bpf_sys_bpf``), with 52.2%
of helpers calling 30+ functions and 34.5% calling 500+.

We cannot ship the Linux source tree, so this module generates a
deterministic *synthetic kernel*: ~20k functions across realistic
subsystems, wired into a DAG whose transitive-closure sizes span the
full range the paper reports.  The generator computes exact closure
sizes (bitset dynamic programming) so the eBPF helper registry can
attach each modeled helper at a point in the graph matching its
documented call-graph size; the *measurement* in
:mod:`repro.analysis.callgraph` then rediscovers those sizes with an
independent BFS, exactly as the paper's static analysis did over C.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

#: subsystem name -> share of the function population
SUBSYSTEMS = [
    ("lib", 0.15),
    ("mm", 0.14),
    ("sched", 0.08),
    ("locking", 0.05),
    ("rcu", 0.03),
    ("net", 0.22),
    ("fs", 0.14),
    ("security", 0.05),
    ("irq", 0.04),
    ("time", 0.04),
    ("bpf", 0.06),
]

_VERBS = ["init", "alloc", "free", "get", "put", "find", "insert", "remove",
          "update", "lookup", "check", "handle", "process", "queue", "flush",
          "copy", "map", "unmap", "lock", "unlock", "commit", "prepare",
          "resolve", "validate", "walk", "scan", "emit", "attach", "detach"]

_NOUNS = ["page", "entry", "node", "buf", "ctx", "desc", "table", "slot",
          "range", "region", "group", "list", "tree", "cache", "ref",
          "state", "work", "event", "request", "object", "chain", "frame",
          "record", "item", "zone", "block", "segment", "policy", "rule"]


@dataclass
class KernelFunction:
    """One function in the synthetic kernel source tree."""

    fn_id: int
    name: str
    subsystem: str
    loc: int


class FunctionDatabase:
    """The synthetic kernel: functions, call edges, closure sizes.

    The call graph is a DAG by construction (functions only call
    functions with a lower id), which mirrors how the generator builds
    bottom-up layers; cycles in real kernels are collapsed by static
    analyzers anyway, so closure sizes are unaffected by this choice.
    """

    def __init__(self, seed: int = 2023) -> None:
        self.seed = seed
        self.functions: List[KernelFunction] = []
        self.callees: List[List[int]] = []
        self._by_name: Dict[str, int] = {}
        self._closure_size: List[int] = []
        # ids with exact closure size k, for attachment-point lookup
        self._size_index: Dict[int, List[int]] = {}

    # -- construction -------------------------------------------------------

    def add_function(self, name: str, subsystem: str, loc: int,
                     callees: Sequence[int] = ()) -> int:
        """Append a function calling only already-present functions."""
        fn_id = len(self.functions)
        for callee in callees:
            if not 0 <= callee < fn_id:
                raise ValueError(
                    f"{name}: callee id {callee} not below {fn_id} "
                    "(call graph must stay a DAG)")
        if name in self._by_name:
            raise ValueError(f"duplicate function name {name}")
        self.functions.append(KernelFunction(fn_id, name, subsystem, loc))
        self.callees.append(list(dict.fromkeys(callees)))
        self._by_name[name] = fn_id
        size = self._compute_closure_size(fn_id)
        self._closure_size.append(size)
        self._size_index.setdefault(size, []).append(fn_id)
        return fn_id

    def _compute_closure_size(self, fn_id: int) -> int:
        """Exact closure size for a newly added node (BFS; cheap because
        nodes are added once and bulk generation uses the mask DP)."""
        seen = set()
        stack = list(self.callees[fn_id])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.callees[node])
        return len(seen)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.functions)

    def lookup(self, name: str) -> Optional[KernelFunction]:
        """Find a function by name."""
        fn_id = self._by_name.get(name)
        return self.functions[fn_id] if fn_id is not None else None

    def closure_size(self, fn_id: int) -> int:
        """Number of distinct functions transitively reachable from
        ``fn_id`` (excluding itself) — the Figure 3 metric."""
        return self._closure_size[fn_id]

    def callees_of(self, fn_id: int) -> List[int]:
        """Direct callees of a function."""
        return self.callees[fn_id]

    def total_loc(self, subsystem: Optional[str] = None) -> int:
        """Total lines of code, optionally for one subsystem."""
        return sum(f.loc for f in self.functions
                   if subsystem is None or f.subsystem == subsystem)

    def entry_with_closure(self, target: int) -> int:
        """Id of a function whose closure size is as close as possible
        to ``target`` — used to attach helpers at documented depths."""
        if target in self._size_index:
            return self._size_index[target][0]
        best_size = min(self._size_index,
                        key=lambda s: (abs(s - target), s))
        return self._size_index[best_size][0]

    def closure_spectrum(self) -> List[int]:
        """Sorted list of all distinct closure sizes present."""
        return sorted(self._size_index)


def _bulk_generate(db: FunctionDatabase, rng: random.Random,
                   total: int) -> None:
    """Populate ``db`` with a layered synthetic kernel.

    Layer plan (ids ascend through layers, keeping the DAG invariant):

    1. *leaves* — primitives with no callees (atomics, string ops).
    2. *utils* — small helpers calling a few leaves.
    3. *spine* — a long dependency chain through core-kernel layers;
       node k of the spine reaches ~k functions, giving a dense
       spectrum of closure sizes up to ~6000 (covering the paper's
       maximum of 4845).
    4. *mid* — subsystem logic calling a mix of everything below,
       providing realistic fan-out texture.
    """
    n_leaf = int(total * 0.15)
    n_util = int(total * 0.20)
    n_spine = int(total * 0.30)
    n_mid = total - n_leaf - n_util - n_spine

    def pick_subsystem() -> str:
        r = rng.random()
        acc = 0.0
        for name, share in SUBSYSTEMS:
            acc += share
            if r < acc:
                return name
        return SUBSYSTEMS[-1][0]

    def make_name(subsystem: str, fn_id: int) -> str:
        verb = rng.choice(_VERBS)
        noun = rng.choice(_NOUNS)
        return f"{subsystem}_{verb}_{noun}_{fn_id}"

    def make_loc() -> int:
        # heavy-ish tail like real kernel functions
        return max(3, int(rng.lognormvariate(3.0, 0.9)))

    # Bitset DP for exact closure sizes during bulk generation: masks[i]
    # holds the closure of node i as a Python int bitset.
    masks: List[int] = []

    def bulk_add(subsystem: str, callees: List[int]) -> int:
        fn_id = len(db.functions)
        name = make_name(subsystem, fn_id)
        db.functions.append(
            KernelFunction(fn_id, name, subsystem, make_loc()))
        db.callees.append(callees)
        db._by_name[name] = fn_id
        mask = 0
        for callee in callees:
            mask |= masks[callee] | (1 << callee)
        masks.append(mask)
        size = mask.bit_count() if hasattr(mask, "bit_count") \
            else bin(mask).count("1")
        db._closure_size.append(size)
        db._size_index.setdefault(size, []).append(fn_id)
        return fn_id

    # layer 1: leaves
    for __ in range(n_leaf):
        bulk_add(pick_subsystem(), [])
    leaf_end = len(db.functions)

    # layer 2: utils
    for __ in range(n_util):
        fanout = rng.randint(1, 4)
        callees = rng.sample(range(leaf_end), min(fanout, leaf_end))
        bulk_add(pick_subsystem(), callees)
    util_end = len(db.functions)

    # layer 3: spine — each node calls its predecessor plus some utils
    prev = None
    for k in range(n_spine):
        callees: List[int] = []
        if prev is not None:
            callees.append(prev)
        extra = rng.randint(0, 2)
        callees.extend(rng.sample(range(util_end), extra))
        prev = bulk_add(pick_subsystem(), callees)

    spine_end = len(db.functions)

    # layer 4: mid-layer subsystem logic
    for __ in range(n_mid):
        fanout = rng.randint(2, 5)
        pool_top = len(db.functions)
        callees = []
        for __ in range(fanout):
            # bias toward shallow targets; occasionally reach the spine
            if rng.random() < 0.25:
                callees.append(rng.randrange(util_end, spine_end))
            else:
                callees.append(rng.randrange(pool_top))
        bulk_add(pick_subsystem(), list(dict.fromkeys(callees)))


@lru_cache(maxsize=4)
def build_default_funcdb(seed: int = 2023,
                         total: int = 20000) -> FunctionDatabase:
    """Build (and cache) the default synthetic kernel."""
    db = FunctionDatabase(seed=seed)
    rng = random.Random(seed)
    _bulk_generate(db, rng, total)
    return db
