"""Lock-order graph and deadlock cycle reporting.

A graph edge (l1, p, l2) records that at place p some thread already holding
l1 may acquire l2. Cycles over at least two locks are deadlock candidates,
searched shortest first (graphs.cycles) up to the cycle cap, which bounds
the search itself; each is kept only if every pair of its places can
overlap in time (see nonconc). STAR is a lock that aliases everything:
before cycle enumeration the edge set is closed so that every STAR endpoint
also stands for each concrete lock, which lets a cycle pass through an
unresolved acquisition.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .graphs import cycles, sccs
from .locksets import LocksetResults
from .places import Place
from .pointsto import STAR, obj_key, obj_label
from .nonconc import NonConcurrency


@dataclass(frozen=True)
class LockEdge:
    held: object      # abstract lock object or STAR
    place: Place
    acquired: object  # abstract lock object or STAR
    line: int = 0     # source line of the acquiring statement

    def __repr__(self) -> str:
        return f"({obj_label(self.held)}, p{list(self.place)}, {obj_label(self.acquired)})"


def build_lock_graph(locks: LocksetResults) -> list[LockEdge]:
    """Direct sweep over the solved lock places; no extra fixpoint is needed."""
    out: list[LockEdge] = []
    seen: set[tuple] = set()
    states = locks.may.state
    for pid, p, e in locks.lock_places:
        ls = states[pid]
        vs = locks.operands.at(p, e)
        for l1 in ls:
            for l2 in ([STAR] if vs is STAR else vs):
                if (l1, pid, l2) not in seen:
                    seen.add((l1, pid, l2))
                    out.append(LockEdge(l1, p, l2, e.line))
    # One lock statement per location, so this order is total.
    out.sort(key=lambda e: (e.line, e.place, obj_key(e.held), obj_key(e.acquired)))
    return out


# ------------------------------------------------------------------ closure


def close_lock_edges(edges: list[LockEdge]) -> list[LockEdge]:
    """Apply the STAR closure to built edges, keeping place and line intact.

    Each STAR endpoint additionally stands for every concrete lock of the
    set. One pass is enough: the result mentions no new locks, so closing
    again adds nothing. Cycle enumeration must run on the closed graph: an
    unresolved acquisition such as (m1, p, STAR) only meets a concrete edge
    (m2, q, m1) once the closure has spelled out (m1, p, m2).
    """
    locks = sorted({e.held for e in edges if e.held is not STAR}
                   | {e.acquired for e in edges if e.acquired is not STAR},
                   key=obj_key)
    out = list(edges)
    seen = {(e.held, e.place, e.acquired) for e in edges}
    for e in edges:
        heads = locks + [STAR] if e.held is STAR else [e.held]
        tails = locks + [STAR] if e.acquired is STAR else [e.acquired]
        for a in heads:
            for b in tails:
                if (a, e.place, b) not in seen:
                    seen.add((a, e.place, b))
                    out.append(LockEdge(a, e.place, b, e.line))
    return out


# ------------------------------------------------------------------- cycles


def lock_names(edges: list[LockEdge]) -> dict[object, str]:
    """obj_label of each lock of the edges; where two distinct locks share a
    label, each is qualified by its base kind, as in alloc6 (global)."""
    locks = {e.held for e in edges} | {e.acquired for e in edges}
    keys = {lock: obj_key(lock) for lock in locks}
    clash = Counter(label for label, _ in keys.values())
    return {lock: label if clash[label] == 1 else f"{label} ({kind[:-3].lower()})"
            for lock, (label, kind) in keys.items()}


@dataclass
class Cycle:
    """edges[j] acquires the lock named locks[j] while holding locks[j - 1].
    The combinations of one node cycle share one locks list, which nothing
    changes."""
    edges: tuple[LockEdge, ...]
    locks: list[str]
    pruned_by: str | None = None
    failed_pair: tuple[Place, Place] | None = None


@dataclass
class CycleSearch:
    cycles: list[Cycle] = field(default_factory=list)
    truncated: bool = False
    combos_seen: int = 0


def enumerate_cycles(edges: list[LockEdge], cap: int = 2000) -> CycleSearch:
    """Elementary cycles over >= 2 locks, expanded to edge combinations.

    One strongly connected component pass gives the longest possible
    cycle; graphs.cycles then yields the cycles of each length in turn,
    shortest first, each from its smallest node and sorted by nodes within
    a length. Parallel edges between the same pair of locks multiply out
    in line order. The search is lazy and stops at the first combination
    past cap, so cap bounds the work. Graph nodes are the locks' obj_key
    positions.
    """
    names = lock_names(edges)
    order = sorted(names, key=obj_key)
    node = {lock: i for i, lock in enumerate(order)}
    label = [names[lock] for lock in order]
    succ: dict[int, list[int]] = {i: [] for i in node.values()}
    pred: dict[int, list[int]] = {i: [] for i in node.values()}
    parallel: dict[tuple[int, int], list[LockEdge]] = {}
    for e in edges:
        leg = (node[e.held], node[e.acquired])
        if leg not in parallel:
            succ[leg[0]].append(leg[1])
            pred[leg[1]].append(leg[0])
            parallel[leg] = []
        parallel[leg].append(e)
    for es in parallel.values():
        es.sort(key=lambda e: (e.line, e.place))

    res = CycleSearch()
    comps = sccs(succ)
    comp = {n: i for i, c in enumerate(comps) for n in c}
    for k in range(2, max(map(len, comps), default=0) + 1):
        for nodes in cycles(succ, pred, comp, k):
            pools = [parallel[nodes[j], nodes[(j + 1) % k]] for j in range(k)]
            locks = [label[n] for n in nodes[1:] + nodes[:1]]
            for combo in itertools.product(*pools):
                if res.combos_seen >= cap:
                    res.truncated = True
                    return res
                res.combos_seen += 1
                res.cycles.append(Cycle(combo, locks))
    return res


# ------------------------------------------------------------- concurrency


def filter_cycles(search: CycleSearch, nc: NonConcurrency | None) -> None:
    """Mark pruned cycles in place; nc=None keeps every candidate."""
    if nc is None:
        return
    for cyc in search.cycles:
        for e1, e2 in itertools.combinations(cyc.edges, 2):
            reason = nc.check(e1.place, e2.place)
            if reason is not None:
                cyc.pruned_by = reason
                cyc.failed_pair = (e1.place, e2.place)
                break


# ------------------------------------------------------------------- output


def lockgraph_dot(edges: list[LockEdge]) -> str:
    names = lock_names(edges)
    lines = ["digraph lockgraph {", "  node [shape=box, fontsize=10];"]
    for n in sorted(names.values()):
        shape = ', style=dashed' if n == "*" else ""
        lines.append(f'  "{n}" [label="{n}"{shape}];')
    for e in sorted(edges, key=lambda e: (names[e.held], names[e.acquired], e.line)):
        lines.append(f'  "{names[e.held]}" -> "{names[e.acquired]}"'
                     f' [label="line {e.line}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
