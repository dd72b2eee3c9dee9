"""Non-concurrency of places: can two places be occupied at the same time?

Two independent arguments are combined:

* gatelock: both places definitely hold a common lock, so no interleaving
  puts two threads there simultaneously.
* create/join structure: whenever control can flow from one place's branch
  point to the other's, some join of the intervening thread lies on every
  such path (threads of one instance are dead before the other part runs).

Everything here is conservative: the answer "non-concurrent" must hold on
every execution, "concurrent" just means we could not prove otherwise.
"""

from __future__ import annotations

from functools import cached_property

import networkx as nx

from .frontend.icfa import ICFA, Edge, FuncEntryOp, JoinOp, ThreadEntryOp
from .locksets import LocksetResults
from .places import MAIN_THREAD, Place, common_prefix_len, get_thread, \
    multiple_thread_guard
from .pointsto import STAR, PointsToResult

GATELOCK = "gatelock"
CREATE_JOIN = "create_join"
SINGLE_THREAD = "single_thread"
UNREACHED = "unreached"


class GraphFacts:
    """Reachability, dominators and loop membership over the stitched graph.

    Thread entry edges are excluded: a created thread's body is not a
    continuation of the creator, so paths must not flow through them.
    """

    def __init__(self, icfa: ICFA):
        self.icfa = icfa
        self.succ: dict[int, list[int]] = {loc.id: [] for loc in icfa.locations}
        for e in icfa.edges:
            if not isinstance(e.op, ThreadEntryOp):
                self.succ[e.src].append(e.tgt)
        self._reach: dict[int, set[int]] = {}
        self._idom: dict[int, dict[int, int]] = {}

    def reach(self, a: int) -> set[int]:
        got = self._reach.get(a)
        if got is None:
            seen = {a}
            stack = [a]
            while stack:
                n = stack.pop()
                for m in self.succ[n]:
                    if m not in seen:
                        seen.add(m)
                        stack.append(m)
            self._reach[a] = got = seen
        return got

    def has_path(self, a: int, b: int) -> bool:
        return b in self.reach(a)

    @cached_property
    def digraph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(self.succ)
        for n, ms in self.succ.items():
            g.add_edges_from((n, m) for m in ms)
        return g

    def on_all_paths(self, a: int, b: int, c: int) -> bool:
        """Every path a ->* c visits b, and b is actually ahead of a."""
        if not self.has_path(a, b):
            return False
        if not self.has_path(a, c):
            return True  # no such path: either vacuous or the joiner blocks
        idom = self._idom.get(a)
        if idom is None:
            # the result leaves out the start node itself
            self._idom[a] = idom = nx.immediate_dominators(self.digraph, a)
        while c != b and c != a:
            c = idom[c]
        return c == b

    def on_all_cycles(self, a: int, b: int) -> bool:
        """Every cycle through a visits b."""
        if a == b:
            return True
        seen = set()
        stack = [m for m in self.succ[a] if m != b]
        while stack:
            n = stack.pop()
            if n == a:
                return False  # found a cycle avoiding b
            if n in seen or n == b:
                continue
            seen.add(n)
            stack.extend(self.succ[n])
        return True

    @cached_property
    def _loop(self) -> dict[int, bool]:
        g = self.digraph
        loop: dict[int, bool] = {}
        for comp in nx.strongly_connected_components(g):
            big = len(comp) > 1
            for n in comp:
                loop[n] = big or g.has_edge(n, n)
        return loop

    def in_loop(self, a: int) -> bool:
        return self._loop[a]


class NonConcurrency:
    def __init__(self, icfa: ICFA, locks: LocksetResults, pt: PointsToResult):
        self.icfa = icfa
        self.locks = locks
        self.pt = pt
        self.graph = GraphFacts(icfa)
        self.creates = icfa.create_sites
        self._calls_in: dict[str, list[Edge]] = {}
        self._joins_in: dict[str, list[Edge]] = {}
        for e in icfa.edges:
            if isinstance(e.op, FuncEntryOp):
                self._calls_in.setdefault(icfa.func_of(e.src), []).append(e)
            elif isinstance(e.op, JoinOp):
                self._joins_in.setdefault(icfa.func_of(e.src), []).append(e)
        self._memo: dict[frozenset, str | None] = {}
        self._covers: dict[tuple[int, int], tuple[list[Edge], list[Edge]]] = {}
        self._matches: dict[tuple[Place, Place], bool] = {}

    # ------------------------------------------------------------- public

    def check(self, p1: Place, p2: Place) -> str | None:
        """A reason the places cannot be simultaneously occupied, or None."""
        key = frozenset((p1, p2))
        if key in self._memo:
            return self._memo[key]
        r = self._check(p1, p2)
        self._memo[key] = r
        return r

    def multiple_thread(self, t: Place) -> bool:
        """May several instances of thread t run at once?"""
        multiple_thread_guard(t)
        return any(self.graph.in_loop(loc) for loc in t)

    # ------------------------------------------------------------ internal

    def _check(self, p1: Place, p2: Place) -> str | None:
        m1 = self.locks.must.at(p1)
        m2 = self.locks.must.at(p2)
        if m1 is None or m2 is None:
            return UNREACHED
        if m1 & m2:
            return GATELOCK
        t1 = get_thread(p1, self.creates)
        t2 = get_thread(p2, self.creates)
        if t1 == t2:
            # one abstract thread: two occupants need two live instances
            if t1 == MAIN_THREAD or not self.multiple_thread(t1):
                return SINGLE_THREAD
            return None
        i = common_prefix_len(p1, p2)
        if i >= len(p1) or i >= len(p2):
            return None  # one place prefixes the other: stay conservative
        l1, l2 = p1[i], p2[i]
        r1 = self._unwind(i, p1, l2) if self.graph.has_path(l1, l2) else True
        r2 = self._unwind(i, p2, l1) if self.graph.has_path(l2, l1) else True
        return CREATE_JOIN if (r1 and r2) else None

    def _unwind(self, i: int, p: Place, l_to: int) -> bool:
        """True if the thread part of p above level i is joined on every path
        from p[i] to l_to, so its places cannot outlive that flow."""
        g = self.graph
        q = list(p)
        joined = True
        p_c: Place | None = None
        while len(q) > i:
            loc = q.pop()
            if loc in self.creates:
                if not joined:
                    return False
                joined = False
                p_c = (*q, loc)
            elif joined:
                continue
            # below level i the thread must be joined before its function
            # returns; at level i, before control reaches l_to
            target = l_to if len(q) == i else \
                self.icfa.exit_of(self.icfa.func_of(loc))
            prefix = tuple(q)
            joined = self._find(p_c, prefix, loc, target)
            if g.in_loop(loc) and not (
                    joined and self._find(p_c, prefix, loc, loc)):
                return False
        return joined

    def _find(self, p_c: Place, prefix: Place, l_a: int, l_b: int,
              seen: frozenset = frozenset()) -> bool:
        """Does a join matching the thread created at p_c lie on every path
        (or cycle, when l_a == l_b) from l_a to l_b?"""
        joins, calls = self._covering(l_a, l_b)
        for je in joins:
            if self._match(p_c, prefix + (je.src,)):
                return True
        for ce in calls:
            callee = self.icfa.func_of(ce.tgt)
            if callee in seen:
                continue
            if self._find(p_c, prefix + (ce.src,), ce.tgt,
                          self.icfa.exit_of(callee), seen | {callee}):
                return True
        return False

    def _covering(self, l_a: int, l_b: int) -> tuple[list[Edge], list[Edge]]:
        """_find's join and call edges for l_a -> l_b, cached (graph only)."""
        got = self._covers.get((l_a, l_b))
        if got is None:
            g = self.graph

            def covers(loc: int) -> bool:
                if l_a == l_b:
                    return g.has_path(l_a, loc) and g.on_all_cycles(l_a, loc)
                # loc == l_b would count a join the other occupant is still
                # sitting at, i.e. one that has not completed yet
                return loc != l_b and g.on_all_paths(l_a, loc, l_b)

            f = self.icfa.func_of(l_a)
            self._covers[l_a, l_b] = got = (
                [e for e in self._joins_in.get(f, ()) if covers(e.src)],
                [e for e in self._calls_in.get(f, ()) if covers(e.src)])
        return got

    def _match(self, p_c: Place, p_join: Place) -> bool:
        """The join at p_join certainly waits for the thread created at p_c
        (cached: points-to is solved by now)."""
        got = self._matches.get((p_c, p_join))
        if got is None:
            got = self._matches[p_c, p_join] = self._match_values(p_c, p_join)
        return got

    def _match_values(self, p_c: Place, p_join: Place) -> bool:
        create = self.icfa.create_op_at(p_c[-1])
        join_op = None
        for e in self.icfa.out_edges[p_join[-1]]:
            if isinstance(e.op, JoinOp):
                join_op = e.op
                break
        if join_op is None:
            return False
        cv = self.pt.value_set(p_c, create.tid, at_sync=True)
        jv = self.pt.lvalue_set(p_join, join_op.tid)
        if cv is STAR or jv is STAR:
            return False
        return len(cv) == 1 and cv == jv
