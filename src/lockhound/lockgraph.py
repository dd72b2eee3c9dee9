"""Lock-order graph and deadlock cycle reporting.

A graph edge (l1, p, l2) records that at place p some thread already holding
l1 may acquire l2. Cycles over at least two locks are deadlock candidates;
each candidate is kept only if every pair of its places can actually overlap
in time (see nonconc). STAR participates as a lock that aliases everything:
before cycle enumeration the edge set is closed so that every STAR endpoint
also stands for each concrete lock of the graph, which is what lets a cycle
pass through an unresolved acquisition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import networkx as nx

from .frontend.icfa import ICFA, LockOp
from .locksets import LocksetResults
from .places import Place
from .pointsto import STAR, PointsToResult, obj_key, obj_label
from .nonconc import NonConcurrency


@dataclass(frozen=True)
class LockEdge:
    held: object      # abstract lock object or STAR
    place: Place
    acquired: object  # abstract lock object or STAR
    line: int = 0     # source line of the acquiring statement

    def __repr__(self) -> str:
        return f"({obj_label(self.held)}, p{list(self.place)}, {obj_label(self.acquired)})"


def build_lock_graph(icfa: ICFA, locks: LocksetResults,
                     pt: PointsToResult) -> list[LockEdge]:
    """Direct sweep over solved places; no extra fixpoint is needed."""
    out: list[LockEdge] = []
    seen: set[tuple] = set()
    for pid, (_, ls) in locks.may.states.items():
        p = locks.may.places.resolve(pid)
        for e in icfa.out_edges[p[-1]]:
            if not isinstance(e.op, LockOp):
                continue
            vs = pt.value_set(p, e.op.arg, at_sync=True)
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


@dataclass
class Cycle:
    edges: tuple[LockEdge, ...]
    pruned_by: str | None = None
    failed_pair: tuple[Place, Place] | None = None

    @property
    def locks(self) -> list[str]:
        return [obj_label(e.acquired) for e in self.edges]

    @property
    def places(self) -> list[Place]:
        return [e.place for e in self.edges]


@dataclass
class CycleSearch:
    cycles: list[Cycle] = field(default_factory=list)
    truncated: bool = False
    combos_seen: int = 0


def enumerate_cycles(edges: list[LockEdge], cap: int = 2000) -> CycleSearch:
    """All elementary cycles over >= 2 locks, expanded to edge combinations.

    Parallel edges between the same pair of locks multiply out; the search
    stops recording once cap combinations were produced. Graph nodes are
    the locks' positions in obj_key order.
    """
    locks = sorted({e.held for e in edges} | {e.acquired for e in edges},
                   key=obj_key)
    node = {lock: i for i, lock in enumerate(locks)}
    g = nx.DiGraph()
    parallel: dict[tuple[int, int], list[LockEdge]] = {}
    for e in edges:
        leg = (node[e.held], node[e.acquired])
        g.add_edge(*leg)
        parallel.setdefault(leg, []).append(e)
    for es in parallel.values():
        es.sort(key=lambda e: (e.line, e.place))

    res = CycleSearch()
    # Rotate every cycle to start at its smallest node so reports do not
    # depend on graph insertion order, then enumerate short cycles first.
    node_cycles = []
    for c in nx.simple_cycles(g):
        i = c.index(min(c))
        node_cycles.append(c[i:] + c[:i])
    node_cycles.sort(key=lambda c: (len(c), tuple(c)))
    for nodes in node_cycles:
        if len(nodes) < 2:
            continue  # one lock alone cannot form an order cycle
        legs = [(nodes[k], nodes[(k + 1) % len(nodes)]) for k in range(len(nodes))]
        pools = [parallel[leg] for leg in legs]
        for combo in itertools.product(*pools):
            if res.combos_seen >= cap:
                res.truncated = True
                return res
            res.combos_seen += 1
            res.cycles.append(Cycle(edges=tuple(combo)))
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
    lines = ["digraph lockgraph {", "  node [shape=box, fontsize=10];"]
    nodes = sorted({obj_label(e.held) for e in edges}
                   | {obj_label(e.acquired) for e in edges})
    for n in nodes:
        shape = ', style=dashed' if n == "*" else ""
        lines.append(f'  "{n}" [label="{n}"{shape}];')
    for e in sorted(edges, key=lambda e: (obj_label(e.held), obj_label(e.acquired), e.line)):
        lines.append(f'  "{obj_label(e.held)}" -> "{obj_label(e.acquired)}"'
                     f' [label="line {e.line}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
