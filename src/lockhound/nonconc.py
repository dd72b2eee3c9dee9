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

from .frontend.icfa import ICFA, INTER_OPS, Edge, FuncEntryOp, ThreadEntryOp
from .frontend.syntax import JoinStmt
from .graphs import idoms, sccs
from .locksets import LocksetResults
from .places import MAIN_THREAD, Place, common_prefix_len, get_thread, \
    multiple_thread_guard
from .pointsto import STAR, PointsToResult

GATELOCK = "gatelock"
CREATE_JOIN = "create_join"
SINGLE_THREAD = "single_thread"
UNREACHED = "unreached"


class GraphFacts:
    """Paths, dominators and loops for the create/join argument.

    The graphs are adjacency dicts; their components and dominators come
    from lockhound.graphs. `in_loop` asks the stitched graph: a location is
    in a loop when it lies on a cycle of the whole program, calls and
    returns included (its component has two locations or a self edge).

    `has_path`, `on_all_paths` and `on_all_cycles` ask the local graph of
    the one function f that holds the queried locations. That graph has f's
    own edges, plus:

    * a summary edge from each call site to its return site;
    * for a call whose callee can call back into f (the two share a
      strongly connected component of the call graph), an edge from the
      call site to entry(f) and one from exit(f) to the return site;
    * an edge exit(f) -> entry(f) when the two share a strongly connected
      component of the stitched graph: f can run again after it returns.

    Thread entry edges are left out of both graphs: a created thread's body
    is not a continuation of its creator.

    Soundness. Take a real path from a to c, both in f, and cut it into the
    stretches it spends in frames of f. Between two stretches the path
    either runs a whole call (a summary edge), descends through a call into
    a new frame of f (call -> entry), returns from a frame of f into an
    older one (exit -> return site) or leaves f and enters it afresh
    (exit -> entry). So every real path from a to c projects onto a local
    path, and every node of that local path is visited by the real path.
    If b, a location of f, lies on every local path from a to c, it lies on
    every real one: no stretch outside f can hide it. A summary edge for a
    callee that never returns only adds local paths, which can only make an
    answer more conservative. A query whose locations lie in different
    functions gets the conservative answer: has_path True, on_all_paths and
    on_all_cycles False.
    """

    def __init__(self, icfa: ICFA):
        self.icfa = icfa
        self._local: dict[str, tuple[dict, dict]] = {}  # succ, pred
        self._idom: dict[int, dict[int, int]] = {}

    @cached_property
    def _stitched(self) -> tuple[dict[int, int], set[int]]:
        """The component of each location in the stitched graph, and the
        locations that lie on a cycle of it."""
        succ = {loc: [e.tgt for e in out
                      if not isinstance(e.op, ThreadEntryOp)]
                for loc, out in self.icfa.out_edges.items()}
        comps = sccs(succ)
        loops = {loc for c in comps if len(c) > 1 or c[0] in succ[c[0]]
                 for loc in c}
        return {loc: k for k, c in enumerate(comps) for loc in c}, loops

    @cached_property
    def _call_comp(self) -> dict[str, int]:
        """The component of each function in the call graph."""
        icfa = self.icfa
        succ: dict[str, set[str]] = {f: set() for f in icfa.functions}
        for e in icfa.edges:
            if isinstance(e.op, FuncEntryOp):
                succ[icfa.func_of(e.src)].add(icfa.func_of(e.tgt))
        return {f: k for k, c in enumerate(sccs(succ)) for f in c}

    def _graph(self, f: str) -> tuple[dict[int, set[int]], dict]:
        """The local graph of f (see the class docstring) as successor and
        predecessor sets, cached."""
        g = self._local.get(f)
        if g is not None:
            return g
        icfa = self.icfa
        fi = icfa.functions[f]
        locs = range(fi.entry, fi.exit + 1)  # f's locations, in order
        succ: dict[int, set[int]] = {loc: set() for loc in locs}
        for loc in locs:
            for e in icfa.out_edges[loc]:
                if isinstance(e.op, FuncEntryOp):
                    callee = icfa.func_of(e.tgt)
                    ret = next(x.tgt for x in
                               icfa.out_edges[icfa.exit_of(callee)]
                               if x.call_site == loc)
                    succ[loc].add(ret)
                    if self._call_comp[callee] == self._call_comp[f]:
                        succ[loc].add(fi.entry)
                        succ[fi.exit].add(ret)
                elif not isinstance(e.op, INTER_OPS):
                    succ[loc].add(e.tgt)
        comp = self._stitched[0]
        if comp[fi.exit] == comp[fi.entry]:
            succ[fi.exit].add(fi.entry)
        pred: dict[int, set[int]] = {loc: set() for loc in locs}
        for loc, tgts in succ.items():
            for tgt in tgts:
                pred[tgt].add(loc)
        self._local[f] = g = (succ, pred)
        return g

    def _dominators(self, a: int) -> dict[int, int]:
        """Immediate dominators from root a in its local graph, keyed by the
        locations a reaches (a itself left out)."""
        idom = self._idom.get(a)
        if idom is None:
            succ, pred = self._graph(self.icfa.func_of(a))
            self._idom[a] = idom = idoms(succ, pred, a)
        return idom

    @staticmethod
    def _dominates(idom: dict[int, int], a: int, b: int, c: int) -> bool:
        """b is on every path from a to c, which a reaches."""
        while c != b and c != a:
            c = idom[c]
        return c == b

    def has_path(self, a: int, b: int) -> bool:
        func_of = self.icfa.func_of
        if func_of(a) != func_of(b):
            return True
        return a == b or b in self._dominators(a)

    def on_all_paths(self, a: int, b: int, c: int) -> bool:
        """Every path a ->* c visits b, and b is actually ahead of a."""
        func_of = self.icfa.func_of
        if not func_of(a) == func_of(b) == func_of(c):
            return False
        idom = self._dominators(a)
        if b != a and b not in idom:
            return False
        if c != a and c not in idom:
            return True  # no such path: either vacuous or the joiner blocks
        return self._dominates(idom, a, b, c)

    def on_all_cycles(self, a: int, b: int) -> bool:
        """Every cycle through a visits b."""
        if a == b:
            return True
        f = self.icfa.func_of(a)
        if self.icfa.func_of(b) != f:
            return False
        # a cycle through a is a path from a to a predecessor, then one edge
        idom = self._dominators(a)
        return all(p != a and (p not in idom or self._dominates(idom, a, b, p))
                   for p in self._graph(f)[1][a])

    def in_loop(self, a: int) -> bool:
        return a in self._stitched[1]


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
            elif isinstance(e.op, JoinStmt):
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
        # two instances of a common ancestor thread may hold one place each
        ancestor = get_thread(p1[:i + 1], self.creates)
        if ancestor != MAIN_THREAD and self.multiple_thread(ancestor):
            return None
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
            if isinstance(e.op, JoinStmt):
                join_op = e.op
                break
        if join_op is None:
            return False
        cv = self.pt.value_set(p_c, create.tid, at_sync=True)
        jv = self.pt.lvalue_set(p_join, join_op.tid)
        if cv is STAR or jv is STAR:
            return False
        return len(cv) == 1 and cv == jv
