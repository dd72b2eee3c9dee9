"""Lock-order graph and deadlock cycle reporting.

A graph edge (l1, p, l2) records that at place p some thread already holding
l1 may acquire l2. Node cycles over at least two locks are deadlock
candidates, taken shortest first (graphs.cycles). Each node cycle stands for
the product of its parallel edges; it is reported once, with one
combination whose places may all overlap pairwise in time (see nonconc) as
its witness, or pruned when no combination has that. The product is searched
by backtracking: an edge that cannot overlap one already chosen cuts off
every combination that extends the choice. The cycle cap bounds the
combinations examined, which bounds the search itself. STAR is a lock that
aliases everything: before cycle enumeration the edge set is closed so that
every STAR endpoint also stands for each concrete lock, which lets a cycle
pass through an unresolved acquisition.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
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
    """Direct sweep over the solved lock places; no extra fixpoint is needed.

    Each place is listed once, and its held and acquired locks are sets, so
    no edge repeats."""
    out: list[LockEdge] = []
    states = locks.may.state
    for pid, p, e in locks.lock_places:
        vs = locks.operands.at(p, e)
        for l1 in states[pid]:
            for l2 in ([STAR] if vs is STAR else vs):
                out.append(LockEdge(l1, p, l2, e.line))
    # One lock statement per location, so this order is total.
    keys = {lock: obj_key(lock)
            for lock in {e.held for e in out} | {e.acquired for e in out}}
    out.sort(key=lambda e: (e.line, e.place, keys[e.held], keys[e.acquired]))
    return out


# ------------------------------------------------------------------ closure


def close_lock_edges(edges: list[LockEdge]) -> list[LockEdge]:
    """Apply the STAR closure to built edges, keeping place and line intact.

    Each STAR endpoint additionally stands for every concrete lock of the
    set. One pass is enough: the result mentions no new locks, so closing
    again adds nothing. Cycle enumeration must run on the closed graph: an
    unresolved acquisition such as (m1, p, STAR) only meets a concrete edge
    (m2, q, m1) once the closure has spelled out (m1, p, m2). Without a
    STAR endpoint the closure adds nothing, and the result is a copy.
    """
    if not any(e.held is STAR or e.acquired is STAR for e in edges):
        return list(edges)
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
    """One node cycle: edges[j] acquires the lock named locks[j] while
    holding locks[j - 1]. For a reported cycle, edges is its witness: the
    first combination of its parallel edges, in pool order, whose places
    may all overlap pairwise. A pruned cycle has no such combination; its
    edges are the first combination, which holds failed_pair, the first
    pair of places found unable to overlap, and pruned_by says why."""
    edges: tuple[LockEdge, ...]
    locks: list[str]
    pruned_by: str | None = None
    failed_pair: tuple[Place, Place] | None = None


@dataclass
class CycleSearch:
    """The lock multigraph's node cycles, shortest first, and what the
    search found among them. `candidates` yields each node cycle once, as
    its lock names and one pool of parallel edges per leg; filter_cycles
    drains it into `cycles`. combos_seen counts examined combinations: a
    full combination tried, or a partial one rejected, which stands for
    all of its completions. Past `cap` of them the search stops, truncated.
    """
    candidates: Iterator[tuple[list[str], list[list[LockEdge]]]] = \
        field(default_factory=lambda: iter(()))
    cap: int = 2000
    cycles: list[Cycle] = field(default_factory=list)
    truncated: bool = False
    combos_seen: int = 0


def enumerate_cycles(edges: list[LockEdge], cap: int = 2000) -> CycleSearch:
    """The lock multigraph of the edges and its lazy stream of node cycles.

    Graph nodes are the locks' obj_key positions; the edges between one
    pair of locks form a pool, sorted by (line, place). One strongly
    connected component pass gives the longest possible cycle;
    graphs.cycles then yields the elementary cycles over >= 2 locks of
    each length in turn, shortest first, each from its smallest node and
    sorted by nodes within a length. Nothing is searched until
    filter_cycles drains the stream.
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
    comps = sccs(succ)
    comp = {n: i for i, c in enumerate(comps) for n in c}

    def candidates():
        for k in range(2, max(map(len, comps), default=0) + 1):
            for nodes in cycles(succ, pred, comp, k):
                yield ([label[n] for n in nodes[1:] + nodes[:1]],
                       [parallel[nodes[j], nodes[(j + 1) % k]]
                        for j in range(k)])

    return CycleSearch(candidates(), cap)


# ------------------------------------------------------------- concurrency


def filter_cycles(search: CycleSearch, nc: NonConcurrency | None) -> None:
    """Search each node cycle's edge product, in order, for a witness.

    The first examined combination that survives is the witness, and the
    node cycle is reported once; if none survives, the node cycle is
    pruned. nc=None rejects nothing, so the first combination is the
    witness. The search stops, truncated, at the first examined combination
    past search.cap.
    """
    check = nc.check if nc is not None else lambda p1, p2: None
    for locks, pools in search.candidates:
        first = None  # the first rejection: (reason, failed pair)
        for reason, found in _examine(pools, check, ()):
            if search.combos_seen >= search.cap:
                search.truncated = True
                return
            search.combos_seen += 1
            if reason is None:
                search.cycles.append(Cycle(found, locks))
                break
            first = first or (reason, found)
        else:
            search.cycles.append(
                Cycle(tuple(pool[0] for pool in pools), locks, *first))


def _examine(pools: list[list[LockEdge]], check, chosen: tuple):
    """The examined combinations that extend chosen, by backtracking in pool
    order: (None, edges) for a full combination whose places may all
    overlap pairwise, (reason, pair) for a partial one whose last edge
    cannot overlap the earlier edge of the pair. Nothing is tried past a
    rejected partial combination."""
    for e in pools[len(chosen)]:
        p = e.place
        for c in chosen:
            reason = check(c.place, p)
            if reason is not None:
                yield reason, (c.place, p)
                break
        else:
            if len(chosen) + 1 < len(pools):
                yield from _examine(pools, check, (*chosen, e))
            else:
                yield None, (*chosen, e)


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
