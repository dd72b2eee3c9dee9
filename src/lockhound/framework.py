"""Generic dataflow framework over places.

States are pairs of a function-pointer map (tracking which functions a
pointer parameter can start as a thread) and a client state. The framework
walks the automaton forward from main's entry, keeping one state per place;
client analyses plug in initial/join/transfer.

solve_fs works on flow-sensitive places (call-site chains ending at the
current location), in two parts:

* The exploration needs no client. It steps places with next_place and the
  function-pointer transfer until their maps reach a fixpoint, and records a
  PlaceGraph: the places in intern order, each place's function-pointer map,
  and each place's feasible steps as (edge, target id). It runs once per
  automaton, so the may- and must-lockset solves share it.
* The propagation runs the client over that graph by place id. It calls
  transfer only on edges whose op the client reads and passes the state on
  along every other step; it interns no place.

The split gives the interleaved fixpoint exactly. The function-pointer
transfer never reads the client state, and no client reads the map. The map
only decides which thread entries are feasible, and a thread entry that
becomes feasible as the map degrades never becomes infeasible again. So the
client's least fixpoint over the final graph is the one a walk that steps
both parts of the state together reaches.

solve_fi works on the fi_context images of places: the same call-site chains
with the final location canonicalized to the function's entry, each
function's intra edges composed to a local fixpoint, both parts of the state
in one worklist. Keeping call sites in the flow-insensitive contexts is what
lets two calls of the same lock wrapper from one caller stay
distinguishable.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterator, Protocol

from .errors import DivergedError
from .frontend.icfa import (
    ICFA, Edge, ENTRY_OPS, EXIT_OPS, FuncEntryOp, FuncExitOp, Op,
    ThreadEntryOp, ThreadExitOp,
)
from .frontend.syntax import Assign, FuncRef, VarRef, is_fnptr
from .places import Place, PlaceMap, top


class _Dirty:
    def __repr__(self) -> str:
        return "DIRTY"


DIRTY = _Dirty()

FpMap = dict  # var name -> function name | DIRTY


class ClientAnalysis(Protocol):
    # The op classes whose transfer can change the client state; on any
    # other edge transfer must return the state it was given.
    ops: tuple[type, ...]

    def initial(self) -> Any: ...

    def join(self, a: Any, b: Any) -> Any: ...

    def transfer(self, e: Edge, place: Place, state: Any) -> Any: ...


def join_fp(a: FpMap, b: FpMap) -> FpMap:
    """Join two function-pointer maps.

    An absent entry means "could start anything" and absorbs, so a variable
    stays tracked only when both sides track it; tracked values that agree
    survive, everything else degrades to DIRTY. Keeping absence absorbing
    (rather than letting the other side's value through) makes the join
    associative on the map representation, so fixpoints do not depend on
    worklist order.
    """
    out: FpMap = {}
    for v in a.keys() & b.keys():
        x, y = a[v], b[v]
        if x is DIRTY or y is DIRTY or x != y:
            out[v] = DIRTY
        else:
            out[v] = x
    return out


def match_fp(fpm: FpMap, thr: Any, fname: str) -> bool:
    """Can the create's function expression start function fname?"""
    if isinstance(thr, FuncRef):
        return thr.name == fname
    if isinstance(thr, VarRef):
        val = fpm.get(thr.name)
        return val is None or val is DIRTY or val == fname
    return True  # complex expressions are not tracked


def _bind_params(icfa: ICFA, fpm: FpMap, pairs) -> FpMap:
    out: FpMap = {}
    for arg, par in pairs:
        if not is_fnptr(icfa.prog.var_types.get(par)):
            continue
        if isinstance(arg, FuncRef):
            out[par] = arg.name
        elif isinstance(arg, VarRef) and is_fnptr(arg.typ):
            val = fpm.get(arg.name)
            if val is not None:
                out[par] = val
    return out


def _writes_fp(op: Op) -> bool:
    return isinstance(op, Assign) and isinstance(op.lhs, VarRef) and is_fnptr(op.lhs.typ)


def _intra_fpm(fpm: FpMap, op: Op) -> FpMap:
    if _writes_fp(op):
        out = dict(fpm)
        out[op.lhs.name] = DIRTY
        return out
    return fpm


def fp_transfer(icfa: ICFA, e: Edge, fpm: FpMap) -> FpMap | None:
    """The function-pointer map after an edge; None when the edge is a
    thread entry that cannot start its function under fpm."""
    op = e.op
    if isinstance(op, ThreadEntryOp):
        if not match_fp(fpm, op.thr, icfa.func_of(e.tgt)):
            return None
        return _bind_params(icfa, fpm, [(op.arg, op.param)])
    if isinstance(op, FuncEntryOp):
        return _bind_params(icfa, fpm, zip(op.args, op.params))
    if isinstance(op, EXIT_OPS):
        return {}
    return _intra_fpm(fpm, op)


def transfer(icfa: ICFA, client: ClientAnalysis, e: Edge, p: Place,
             state: tuple[FpMap, Any]) -> tuple[FpMap, Any] | None:
    """Full framework transfer; None means no contribution (bottom)."""
    fpm = fp_transfer(icfa, e, state[0])
    if fpm is None:
        return None
    return fpm, client.transfer(e, p, state[1])


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


def next_place(icfa: ICFA, e: Edge, p: Place) -> Place | None:
    """Successor place along an edge, or None when the edge is infeasible."""
    if isinstance(e.op, ENTRY_OPS):
        return entry_place(icfa, p, e.tgt)
    if isinstance(e.op, EXIT_OPS):
        if len(p) < 2:
            return None
        if isinstance(e.op, (FuncExitOp, ThreadExitOp)) and p[-2] != e.call_site:
            return None  # return edge belonging to a different call site
        return p[:-2] + (e.tgt,)
    return p[:-1] + (e.tgt,)


def _firing(fire: dict, where, edges: list[Edge], p: Place) -> list[Edge]:
    """edges (out of `where`, in order) less the return edges (those with a
    call_site) of call sites other than p[-2], cached per (where, p[-2])."""
    site = p[-2] if len(p) > 1 else None
    got = fire.get((where, site))
    if got is None:
        fire[where, site] = got = [e for e in edges if e.call_site in (None, site)]
    return got


# How the exploration steps a place along an edge: the three cases of
# next_place.
INTRA, ENTRY, RETURN = 0, 1, 2


def _step(icfa: ICFA, op: Op) -> tuple[int, bool]:
    """(kind, plain) of an edge.

    On a plain edge the function-pointer transfer is trivial: the map
    passes an intra edge unchanged, and entering or returning empties it.
    A thread entry is never plain: it must go through match_fp.
    """
    if isinstance(op, ThreadEntryOp):
        return ENTRY, False
    if isinstance(op, FuncEntryOp):
        types = icfa.prog.var_types
        return ENTRY, not any(is_fnptr(types.get(par)) for par in op.params)
    if isinstance(op, EXIT_OPS):
        return RETURN, True
    return INTRA, not _writes_fp(op)


def _step_table(icfa: ICFA) -> list:
    """Per location, (edge, kind, plain) for each of its out-edges. At a
    function exit it holds instead, per call site p[-2], the return edges
    that fire from there (key None: any other site), as next_place would
    filter them."""
    table = [[(e, *_step(icfa, e.op)) for e in icfa.out_edges[loc]]
             for loc in range(len(icfa.locations))]
    for fn in icfa.functions.values():
        out = table[fn.exit]
        table[fn.exit] = {site: [s for s in out if s[0].call_site in (None, site)]
                          for site in {None} | {e.call_site for e, _, _ in out}}
    return table


# ------------------------------------------------------------------ solve


FS_MAX_STEPS = 2_000_000  # pops before either part of solve_fs gives up
FI_MAX_STEPS = 500_000    # worklist pops before solve_fi gives up


class _Worklist:
    """One state per place id; id 0, main's entry, starts with `initial`.

    add() joins a contribution into its place and re-queues the place only
    when its state grew; iterating pops the queued ids until none is left,
    first in first out or, given rng, in a random order. Each pop is a step,
    and a step past max_steps raises DivergedError.
    """

    def __init__(self, initial: Any, join, max_steps: int,
                 rng: random.Random | None = None):
        self.join = join
        self.max_steps = max_steps
        self.rng = rng
        self.states: dict[int, Any] = {0: initial}
        self.work: deque[int] = deque([0])
        self.queued: set[int] = {0}
        self.steps = 0

    def add(self, pid: int, contrib: Any) -> None:
        old = self.states.get(pid)
        if old is not None:
            contrib = self.join(old, contrib)
            if contrib == old:
                return
        self.states[pid] = contrib
        if pid not in self.queued:
            self.queued.add(pid)
            self.work.append(pid)

    def __iter__(self) -> Iterator[int]:
        while self.work:
            self.steps += 1
            if self.steps > self.max_steps:
                raise DivergedError(f"fixpoint exceeded {self.max_steps} steps")
            if self.rng is not None:
                self.work.rotate(-self.rng.randrange(len(self.work)))
            pid = self.work.popleft()
            self.queued.discard(pid)
            yield pid


@dataclass
class PlaceGraph:
    """The flow-sensitive places reachable from main's entry.

    Ids are dense and in first-intern order; place[pid] is the place itself,
    read without PlaceMap.resolve. fpm[pid] is its function-pointer map at
    the fixpoint, and steps[pid] holds (edge, target id) for each out-edge
    that next_place and that map make feasible, in out-edge order.
    """
    places: PlaceMap
    place: list[Place]
    fpm: dict[int, FpMap]
    steps: list[list[tuple[Edge, int]]]


def _explore(icfa: ICFA, rng: random.Random | None = None) -> PlaceGraph:
    """The client-free exploration of the module docstring."""
    table = _step_table(icfa)
    bound = icfa.place_length_bound()
    entry = (icfa.entry_of(icfa.entry_fn),)
    places = PlaceMap()
    intern = places.intern
    intern(entry)
    place: list[Place] = [entry]
    steps: list = [None]
    wl = _Worklist({}, join_fp, FS_MAX_STEPS, rng)
    fpms = wl.states
    for pid in wl:
        p, fpm = place[pid], fpms[pid]
        out = table[p[-1]]
        if type(out) is dict:  # a function exit
            out = out.get(p[-2] if len(p) > 1 else None, out[None])
        feasible = []
        for e, kind, plain in out:
            if kind == INTRA:
                p2 = p[:-1] + (e.tgt,)
            elif kind == ENTRY:
                p2 = entry_place(icfa, p, e.tgt)
            elif len(p) < 2:
                continue
            else:
                p2 = p[:-2] + (e.tgt,)
            assert len(p2) <= bound, "place length bound violated"
            if not plain:
                fpm2 = fp_transfer(icfa, e, fpm)
                if fpm2 is None:
                    continue
            else:
                fpm2 = fpm if kind == INTRA else {}
            q = intern(p2)
            if q == len(place):
                place.append(p2)
                steps.append(None)
            wl.add(q, fpm2)
            feasible.append((e, q))
        steps[pid] = feasible  # the last pop of a place sees its final map
    return PlaceGraph(places, place, fpms, steps)


_PLACE_GRAPHS: weakref.WeakKeyDictionary[ICFA, PlaceGraph] = \
    weakref.WeakKeyDictionary()


def place_graph(icfa: ICFA) -> PlaceGraph:
    """The automaton's exploration, built on first use and kept with it."""
    graph = _PLACE_GRAPHS.get(icfa)
    if graph is None:
        graph = _PLACE_GRAPHS[icfa] = _explore(icfa)
    return graph


class _Paired(Mapping):
    """Place id -> (function-pointer map, client state), read off the two
    tables without storing the pairs."""

    def __init__(self, fpm: dict[int, FpMap], client: dict[int, Any]):
        self.fpm, self.client = fpm, client

    def __getitem__(self, pid: int) -> tuple[FpMap, Any]:
        return self.fpm[pid], self.client[pid]

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.client)))

    def __len__(self) -> int:
        return len(self.client)


@dataclass
class SolveResult:
    places: PlaceMap
    states: Mapping[int, tuple[FpMap, Any]]  # place id -> (fp map, client state)
    steps: int

    def at(self, place: Place) -> Any:
        """The client state at a place, or None when it was never reached."""
        pid = self.places.lookup(place)
        return None if pid is None else self.states[pid][1]


def solve_fs(icfa: ICFA, client: ClientAnalysis,
             shuffle_seed: int | None = None) -> SolveResult:
    """Flow-sensitive fixpoint from main's entry: the propagation of the
    module docstring over the automaton's place graph.

    With shuffle_seed, both worklists pop in a seeded random order, over a
    fresh exploration rather than the shared one.
    """
    if shuffle_seed is None:
        rng, graph = None, place_graph(icfa)
    else:
        rng = random.Random(shuffle_seed)
        graph = _explore(icfa, rng)
    ops, step = client.ops, client.transfer
    place, steps = graph.place, graph.steps
    wl = _Worklist(client.initial(), client.join, FS_MAX_STEPS, rng)
    states, add = wl.states, wl.add
    for pid in wl:
        cs = states[pid]
        for e, q in steps[pid]:
            add(q, step(e, place[pid], cs) if isinstance(e.op, ops) else cs)
    return SolveResult(graph.places, _Paired(graph.fpm, states), wl.steps)


def fi_context(icfa: ICFA, p: Place) -> Place:
    """Flow-insensitive image of a place.

    The call-site chain is kept as is; only the current location collapses
    to its function's entry, so one state covers the whole function body
    per calling context.
    """
    return p[:-1] + (icfa.entry_of(icfa.func_of(p[-1])),)


class _PassThrough:
    """Stands in for the client on edges the dependency filter rejects."""
    transfer = staticmethod(lambda e, p, state: state)


def solve_fi(icfa: ICFA, client: ClientAnalysis, edge_filter=None) -> SolveResult:
    """Flow-insensitive fixpoint: one state per fi_context.

    Each processing round composes the function's intra-edge transfers to a
    local fixpoint, then steps along the function's inter-function edges
    with next_place and transfer, as solve_fs would from the edge's source.
    edge_filter (if given) decides which edges the client is applied to: a
    rejected entry edge is not followed, any other rejected edge passes the
    client state through.
    """
    intra: dict[str, list[Edge]] = {f: [] for f in icfa.functions}
    inter: dict[str, list[Edge]] = {f: [] for f in icfa.functions}
    for e in icfa.edges:
        (inter if icfa.is_inter(e) else intra)[icfa.func_of(e.src)].append(e)

    def allowed(e: Edge) -> bool:
        return edge_filter is None or edge_filter(e)

    places = PlaceMap()
    places.intern((icfa.entry_of(icfa.entry_fn),))
    wl = _Worklist(({}, client.initial()),
                   lambda a, b: (join_fp(a[0], b[0]), client.join(a[1], b[1])),
                   FI_MAX_STEPS)
    fire: dict[tuple[str, int | None], list[Edge]] = {}
    for pid in wl:
        p = places.resolve(pid)
        f = icfa.func_of(top(p))
        fpm, cs = wl.states[pid]

        # local fixpoint over the function's own edges
        for e in intra[f]:
            fpm = _intra_fpm(fpm, e.op)
        changed = True
        while changed:
            changed = False
            for e in intra[f]:
                if not allowed(e):
                    continue
                cs2 = client.join(cs, client.transfer(e, p, cs))
                if cs2 != cs:
                    cs = cs2
                    changed = True
        wl.states[pid] = (fpm, cs)

        for e in _firing(fire, f, inter[f], p):
            p2 = next_place(icfa, e, p[:-1] + (e.src,))
            if p2 is None:
                continue
            if allowed(e):
                contrib = transfer(icfa, client, e, p, (fpm, cs))
            elif isinstance(e.op, ENTRY_OPS):
                continue
            else:
                contrib = transfer(icfa, _PassThrough, e, p, (fpm, cs))
            if contrib is not None:
                wl.add(places.intern(fi_context(icfa, p2)), contrib)
    return SolveResult(places, wl.states, wl.steps)
