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

from .frontend.icfa import ICFA, INTRA, Edge, FuncEntryOp, ThreadEntryOp
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

    `has_path` and `cover` ask the local graph of the one function f that
    holds the queried locations. That graph has f's own edges, plus:

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
    answer more conservative.

    Chains. In the local graph b lies on every path from a to c, which a
    reaches, exactly when b is on c's dominator chain from root a: c, its
    immediate dominator, that one's, and so on up to a. So `cover` reads a
    path's locations off one walk of that chain. A cycle through a is a
    path from a to a predecessor p of a followed by the edge p -> a, so b
    lies on every such cycle exactly when it lies on the chain of every
    predecessor that a reaches; a self edge a -> a leaves only a. Both
    readings are of local paths, so by the argument above they hold for
    real paths too. A query whose locations lie in different functions gets
    the conservative answer: has_path True and an empty cover.
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
                    # the exit row of this site starts with its func_exit
                    ret = icfa.steps_at[icfa.exit_of(callee)][loc][0][0].tgt
                    succ[loc].add(ret)
                    if self._call_comp[callee] == self._call_comp[f]:
                        succ[loc].add(fi.entry)
                        succ[fi.exit].add(ret)
                elif e.kind == INTRA:
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

    def has_path(self, a: int, b: int) -> bool:
        func_of = self.icfa.func_of
        if func_of(a) != func_of(b):
            return True
        return a == b or b in self._dominators(a)

    def cover(self, a: int, c: int) -> set[int]:
        """The locations that every path a ->* c visits, c left out; when
        c == a, those that every cycle through a visits, a included. Where
        a reaches no such path or cycle, every location a reaches."""
        f = self.icfa.func_of(a)
        if self.icfa.func_of(c) != f:
            return set()
        idom = self._dominators(a)
        if c != a:
            ends = [idom[c]] if c in idom else []
        else:  # a cycle through a: a path to a predecessor, then one edge
            ends = [p for p in self._graph(f)[1][a] if p == a or p in idom]
        if not ends:
            return {a, *idom}
        cover = None
        for p in ends:  # p and its dominators up to a
            chain = {p}
            while p != a:
                p = idom[p]
                chain.add(p)
            cover = chain if cover is None else cover & chain
        return cover

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
        r = self._memo[key] = self._check(p1, p2)
        return r

    def answer(self, p1: Place, p2: Place) -> str | None:
        """check()'s answer, not stored: a dump of every pair of places
        would fill the memo with pairs the analysis never asked about."""
        key = frozenset((p1, p2))
        return self._memo[key] if key in self._memo else self._check(p1, p2)

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
        """_find's join and call edges for l_a -> l_b, cached (graph only).
        The cover leaves l_b out: a join there may be one the other occupant
        is still sitting at, i.e. one that has not completed yet."""
        got = self._covers.get((l_a, l_b))
        if got is None:
            cover = self.graph.cover(l_a, l_b)
            f = self.icfa.func_of(l_a)
            self._covers[l_a, l_b] = got = (
                [e for e in self._joins_in.get(f, ()) if e.src in cover],
                [e for e in self._calls_in.get(f, ()) if e.src in cover])
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
