"""Generic dataflow framework over places.

States are pairs of a function-pointer map (tracking which functions a
pointer parameter can start as a thread; a variable the map does not name
could start anything) and a client state. The framework walks the
automaton forward from main's entry, keeping one state per place; client
analyses plug in initial/join/transfer.

Both solvers step places by one rule, step_place, along the automaton's
step table: a return edge fires only for the call site on the chain.

The flow-sensitive solve works on places (call-site chains ending at the
current location), in two parts:

* The exploration, explore, needs no client. It steps places with
  step_place and the function-pointer transfer until their maps reach a
  fixpoint, and records a PlaceGraph: the places in intern order, each
  place's function-pointer map, and each place's feasible steps as parallel
  tuples of edges and target ids. Each analysis explores once and passes
  the graph to both lockset solves; the lockset result keeps it, and no
  cache does. It gives up past FS_MAX_PLACES places.
* The propagation, solve_fs, runs the client over a given graph by place
  id. It calls transfer only on edges whose op the client reads and passes
  the state on along every other step; it interns no place. Equal states it
  stores are one object, so its table grows with the distinct states, not
  the places.

The split gives the interleaved fixpoint exactly. The function-pointer
transfer never reads the client state, and no client reads the map. The map
only decides which thread entries are feasible, and a thread entry that
becomes feasible as the map forgets variables never becomes infeasible
again. So the client's least fixpoint over the final graph is the one a
walk that steps both parts of the state together reaches.

solve_fi works on the fi_context images of places: the same call-site chains
with the final location canonicalized to the function's entry, so two calls
of one lock wrapper from one caller stay distinguishable. Each function's
intra edges are composed to a local fixpoint, and both parts of the state
share one worklist. Only the intra edges that can change the state are
composed: the map-changing ones and those whose op the client reads (and
the edge filter allows), listed once per function.

Each solver keeps its own worklist inline: a list of states by place id, a
bytearray of queued flags and a deque of ids popped first in first out. A
place is queued again only when its state grew, and each pop is a step; a
step past the solver's budget raises DivergedError.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Protocol

from .errors import DivergedError
from .frontend.icfa import ENTRY, ICFA, INTRA, Edge, FuncEntryOp, ThreadEntryOp
from .frontend.syntax import FuncRef, VarRef, is_fnptr
from .places import Place, PlaceMap


FpMap = Mapping  # var name -> function name; never changed once made

# The map of every place that tracks no function pointer: a plain entry or
# return, and a binding or join that keeps nothing. Read-only, so that the
# places can share it.
EMPTY_FPM: FpMap = MappingProxyType({})


class ClientAnalysis(Protocol):
    """A client analysis: its states, their join and its transfer.

    States are values: join and transfer return a new state and never change
    one in place, since the solvers share one state object between places.
    join may return its first argument itself when the second adds nothing,
    and solve_fi skips the join when transfer returns its input. A state
    solved with solve_fs must be hashable, because the propagation keeps one
    object per distinct state.
    """

    # The op classes whose transfer can change the client state; on any
    # other edge transfer must return the state it was given.
    ops: tuple[type, ...]

    def initial(self) -> Any: ...

    def join(self, a: Any, b: Any) -> Any: ...

    def transfer(self, e: Edge, place: Place, state: Any) -> Any: ...


def join_fp(a: FpMap, b: FpMap) -> FpMap:
    """Join two function-pointer maps.

    An absent entry means "could start anything" and absorbs, so a variable
    stays tracked only when both sides track it with the same function.
    Keeping absence absorbing (rather than letting the other side's value
    through) makes the join associative on the map representation, so
    fixpoints do not depend on worklist order.
    """
    if not a or not b:
        return EMPTY_FPM
    return {v: f for v, f in a.items() if b.get(v) == f} or EMPTY_FPM


def match_fp(fpm: FpMap, thr: Any, fname: str) -> bool:
    """Can the create's function expression start function fname?"""
    if isinstance(thr, FuncRef):
        return thr.name == fname
    if isinstance(thr, VarRef):
        val = fpm.get(thr.name)
        return val is None or val == fname
    return True  # complex expressions are not tracked


def _bind_params(icfa: ICFA, fpm: FpMap, pairs) -> FpMap:
    out: dict = {}
    for arg, par in pairs:
        if not is_fnptr(icfa.prog.var_types.get(par)):
            continue
        if isinstance(arg, FuncRef):
            out[par] = arg.name
        elif isinstance(arg, VarRef) and is_fnptr(arg.typ):
            val = fpm.get(arg.name)
            if val is not None:
                out[par] = val
    return out or EMPTY_FPM


def fp_transfer(icfa: ICFA, e: Edge, fpm: FpMap) -> FpMap | None:
    """The function-pointer map after an entry or intra edge (a return
    empties it, an assignment forgets its variable); None for a thread
    entry fpm cannot start."""
    op = e.op
    if isinstance(op, ThreadEntryOp):
        if not match_fp(fpm, op.thr, icfa.func_of(e.tgt)):
            return None
        return _bind_params(icfa, fpm, [(op.arg, op.param)])
    if isinstance(op, FuncEntryOp):
        return _bind_params(icfa, fpm, zip(op.args, op.params))
    if e.plain:
        return fpm
    return {v: f for v, f in fpm.items() if v != op.lhs.name} or EMPTY_FPM


# ------------------------------------------------------------- place steps


def entry_place(icfa: ICFA, p: Place, entry_loc: int) -> Place:
    """Append the entered location, collapsing recursive re-entries.

    If some element of p already belongs to the entered function, the place
    is cut back to the prefix before it, which bounds place lengths. That can
    only happen when the function lies on a cycle of the call/create graph,
    so for any other function p is not scanned.
    """
    f = icfa.func_of(entry_loc)
    if f in icfa.recursive_functions:
        for i, loc in enumerate(p):
            if icfa.func_of(loc) == f:
                return p[:i] + (entry_loc,)
    return p + (entry_loc,)


def step_place(icfa: ICFA, p: Place, e: Edge, kind: int) -> Place:
    """The place after p along e, an edge of the given kind out of p[-1]. The
    step table offers a return edge only where p[-2] is its call site."""
    if kind == INTRA:
        return p[:-1] + (e.tgt,)
    if kind == ENTRY:
        return entry_place(icfa, p, e.tgt)
    return p[:-2] + (e.tgt,)


# ------------------------------------------------------------------ solve


FS_MAX_STEPS = 2_000_000    # pops before explore or solve_fs gives up
FS_MAX_PLACES = 1_000_000   # places before the exploration gives up
FI_MAX_STEPS = 500_000      # worklist pops before solve_fi gives up


@dataclass
class PlaceGraph:
    """The flow-sensitive places reachable from main's entry.

    Ids are dense and in first-intern order, and every table is a list
    indexed by id. places.by_id[pid] is the place itself, read without
    PlaceMap.resolve. fpm[pid] is its function-pointer map at the fixpoint.
    edges[pid] and steps[pid] are parallel tuples: the out-edges that
    step_place and that map make feasible, in out-edge order, and the id of
    the place each one steps to.

    Tables share their values between places: a place that can take every
    edge of its step-table row holds the row's own edge tuple, and a
    map that tracks nothing is EMPTY_FPM. Sharing is safe because nothing
    changes a tuple, a stored map or a state in place.
    """
    places: PlaceMap
    fpm: list[FpMap]
    edges: list[tuple[Edge, ...]]
    steps: list[tuple[int, ...]]


def explore(icfa: ICFA) -> PlaceGraph:
    """The client-free exploration of the module docstring."""
    table = icfa.steps_at
    bound = icfa.place_length_bound()
    places = PlaceMap()
    intern = places.intern
    intern((icfa.entry_of(icfa.entry_fn),))
    place = places.by_id
    edges: list = [()]
    steps: list = [()]
    fpms: list = [EMPTY_FPM]
    queued = bytearray([1])
    work = deque([0])
    pop, push = work.popleft, work.append
    n = 0
    while work:
        n += 1
        if n > FS_MAX_STEPS:
            raise DivergedError(f"fixpoint exceeded {FS_MAX_STEPS} steps")
        pid = pop()
        queued[pid] = 0
        p, fpm = place[pid], fpms[pid]
        row = table[p[-1]]
        if type(row) is dict:  # a function exit
            row = row.get(p[-2] if len(p) > 1 else None, row[None])
        es, out = row
        targets = ()  # the target id of each edge in es, None if infeasible
        for e, kind, plain in out:
            p2 = step_place(icfa, p, e, kind)
            if len(p2) > bound:
                raise DivergedError(f"place of length {len(p2)} past the bound {bound}")
            if plain:
                fpm2 = fpm if kind == INTRA else EMPTY_FPM
            elif (fpm2 := fp_transfer(icfa, e, fpm)) is None:
                targets += (None,)
                continue
            q = intern(p2)
            targets += (q,)
            if q == len(edges):
                if q >= FS_MAX_PLACES:
                    raise DivergedError(
                        f"exploration exceeded {FS_MAX_PLACES} places")
                edges.append(())
                steps.append(())
                fpms.append(fpm2)
                queued.append(1)
                push(q)
                continue
            old = fpms[q]
            fpm2 = join_fp(old, fpm2)
            if fpm2 == old:
                continue
            fpms[q] = fpm2
            if not queued[q]:
                queued[q] = 1
                push(q)
        if None in targets:
            es = tuple(e for e, q in zip(es, targets) if q is not None)
            targets = tuple(q for q in targets if q is not None)
        edges[pid], steps[pid] = es, targets  # the last pop sees the final map
    return PlaceGraph(places, fpms, edges, steps)


@dataclass
class SolveResult:
    """A solver's fixpoint: fpm[pid] and state[pid] are the function-pointer
    map and the client state of place pid, and steps counts the pops of its
    worklist."""
    places: PlaceMap
    fpm: list[FpMap]
    state: list
    steps: int

    def at(self, place: Place) -> Any:
        """The client state at a place, or None when it was never reached."""
        pid = self.places.lookup(place)
        return None if pid is None else self.state[pid]


def solve_fs(graph: PlaceGraph, client: ClientAnalysis) -> SolveResult:
    """Flow-sensitive fixpoint from main's entry: the propagation of the
    module docstring over an explored place graph.

    Every state it stores goes through one dict of the distinct states, so
    equal states are one object (hash-consing).
    """
    distinct: dict = {}
    share = distinct.setdefault
    ops, step, join = client.ops, client.transfer, client.join
    place, edges, steps = graph.places.by_id, graph.edges, graph.steps
    initial = client.initial()
    states: list = [share(initial, initial)] + [None] * (len(place) - 1)
    queued = bytearray(len(place))
    queued[0] = 1
    work = deque([0])
    pop, push = work.popleft, work.append
    n = 0
    while work:
        n += 1
        if n > FS_MAX_STEPS:
            raise DivergedError(f"fixpoint exceeded {FS_MAX_STEPS} steps")
        pid = pop()
        queued[pid] = 0
        cs, es = states[pid], edges[pid]
        i = 0  # no zip: one per pop made this loop 10-20% slower
        for q in steps[pid]:
            e = es[i]
            i += 1
            if isinstance(e.op, ops):
                cs2 = step(e, place[pid], cs)
                cs2 = share(cs2, cs2)
            else:
                cs2 = cs
            old = states[q]
            if old is not None:
                cs2 = join(old, cs2)
                if cs2 == old:
                    continue
                cs2 = share(cs2, cs2)
            states[q] = cs2
            if not queued[q]:
                queued[q] = 1
                push(q)
    return SolveResult(graph.places, graph.fpm, states, n)


def fi_context(icfa: ICFA, p: Place) -> Place:
    """Flow-insensitive image of a place.

    The call-site chain is kept as is; only the current location collapses
    to its function's entry, so one state covers the whole function body
    per calling context.
    """
    return p[:-1] + (icfa.entry_of(icfa.func_of(p[-1])),)


def solve_fi(icfa: ICFA, client: ClientAnalysis, edge_filter=None) -> SolveResult:
    """Flow-insensitive fixpoint: one state per fi_context.

    Each processing round composes the function's intra-edge transfers to a
    local fixpoint, then steps along the inter-function edges that the step
    table gives it and its call site, with step_place from the edge's source
    as solve_fs would, into the target's fi_context. edge_filter (if given)
    decides which edges the client is applied to: a rejected entry edge is
    not followed, any other rejected edge passes the client state through.

    The local fixpoint composes only the intra edges that can change a part
    of the state, listed once per function: those whose map transfer is not
    plain, and those whose op is in client.ops and that edge_filter allows.
    On every other intra edge both transfers are the identity.
    """
    allowed = edge_filter if edge_filter is not None else lambda e: True
    bound = icfa.place_length_bound()
    ops, step, join = client.ops, client.transfer, client.join
    local: dict = {}  # function -> (its map-changing, its client intra edges)

    places = PlaceMap()
    intern = places.intern
    intern((icfa.entry_of(icfa.entry_fn),))
    states: list = [(EMPTY_FPM, client.initial())]
    queued = bytearray([1])
    work = deque([0])
    pop, push = work.popleft, work.append
    n = 0
    while work:
        n += 1
        if n > FI_MAX_STEPS:
            raise DivergedError(f"fixpoint exceeded {FI_MAX_STEPS} steps")
        pid = pop()
        queued[pid] = 0
        p = places.resolve(pid)
        f = icfa.func_of(p[-1])
        fpm, cs = states[pid]
        intra, inter = icfa.steps_in[f]
        if f not in local:
            local[f] = ([e for e, _, plain in intra if not plain],
                        [e for e, _, _ in intra
                         if isinstance(e.op, ops) and allowed(e)])
        fp_edges, cs_edges = local[f]

        # local fixpoint over the function's own edges
        for e in fp_edges:
            fpm = fp_transfer(icfa, e, fpm)
        changed = True
        while changed:
            changed = False
            for e in cs_edges:
                cs2 = step(e, p, cs)
                if cs2 is cs:
                    continue  # joining a state with itself gives it back
                cs2 = join(cs, cs2)
                if cs2 is not cs and cs2 != cs:
                    cs = cs2
                    changed = True
        states[pid] = (fpm, cs)

        site = p[-2] if len(p) > 1 else None
        for e, kind, plain in inter.get(site, inter[None]):
            p2 = step_place(icfa, p[:-1] + (e.src,), e, kind)
            if len(p2) > bound:
                raise DivergedError(f"place of length {len(p2)} past the bound {bound}")
            applied = allowed(e)
            if not applied and kind == ENTRY:
                continue
            fpm2 = EMPTY_FPM if plain else fp_transfer(icfa, e, fpm)
            if fpm2 is None:
                continue
            cs2 = step(e, p, cs) if applied else cs
            q = intern(fi_context(icfa, p2))
            if q == len(states):
                states.append((fpm2, cs2))
                queued.append(1)
                push(q)
                continue
            old = states[q]
            new = (join_fp(old[0], fpm2), join(old[1], cs2))
            if new == old:
                continue
            states[q] = new
            if not queued[q]:
                queued[q] = 1
                push(q)
    fpm, state = zip(*states)
    return SolveResult(places, list(fpm), list(state), n)
