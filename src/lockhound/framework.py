"""Generic dataflow framework over places.

States are pairs of a function-pointer map (tracking which functions a
pointer parameter can start as a thread) and a client state. The framework
walks the automaton forward from main's entry, maintaining one state per
place; client analyses plug in initial/join/transfer.

One worklist keeps the states; two traversals step over it with next_place
and transfer. solve_fs explores flow-sensitive places (call-site chains
ending at the current location). solve_fi explores their fi_context images
(the same call-site chains with the final location canonicalized to the
function's entry, each function's intra edges composed to a local
fixpoint). Keeping call sites in the flow-insensitive contexts is what lets
two calls of the same lock wrapper from one caller stay distinguishable.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, Protocol

from .errors import DivergedError
from .frontend.icfa import (
    ICFA, AssignOp, Edge, ENTRY_OPS, EXIT_OPS, FuncEntryOp, FuncExitOp, Op,
    ThreadEntryOp, ThreadExitOp,
)
from .frontend.syntax import FuncRef, VarRef, is_fnptr
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
    return isinstance(op, AssignOp) and isinstance(op.lhs, VarRef) and is_fnptr(op.lhs.typ)


def _intra_fpm(fpm: FpMap, op: Op) -> FpMap:
    if _writes_fp(op):
        out = dict(fpm)
        out[op.lhs.name] = DIRTY
        return out
    return fpm


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


# How solve_fs steps a place along an edge: the three cases of next_place.
INTRA, ENTRY, RETURN = 0, 1, 2


def _step(icfa: ICFA, op: Op, ops: tuple[type, ...]) -> tuple[int, bool]:
    """(kind, plain) of an edge for a client that reads ops.

    A plain edge neither writes the function-pointer map nor is read by the
    client, so stepping it needs no transfer. A thread entry is never plain:
    it must go through match_fp.
    """
    if isinstance(op, ThreadEntryOp):
        return ENTRY, False
    if isinstance(op, FuncEntryOp):
        types = icfa.prog.var_types
        kind, writes = ENTRY, any(is_fnptr(types.get(par)) for par in op.params)
    elif isinstance(op, EXIT_OPS):
        kind, writes = RETURN, False
    else:
        kind, writes = INTRA, _writes_fp(op)
    return kind, not (writes or isinstance(op, ops))


# ICFA -> client op set -> step table; built once per automaton and op set
_STEP_TABLES: weakref.WeakKeyDictionary[ICFA, dict] = weakref.WeakKeyDictionary()


def _step_table(icfa: ICFA, ops: tuple[type, ...]) -> list:
    """solve_fs's step table: per location, (edge, kind, plain) for each of
    its out-edges. At a function exit it holds instead, per call site p[-2],
    the return edges that fire from there (key None: any other site), as
    next_place would filter them."""
    tables = _STEP_TABLES.get(icfa)
    if tables is None:
        tables = _STEP_TABLES[icfa] = {}
    table = tables.get(ops)
    if table is None:
        table = tables[ops] = [[(e, *_step(icfa, e.op, ops)) for e in icfa.out_edges[loc]]
                               for loc in range(len(icfa.locations))]
        for fn in icfa.functions.values():
            out = table[fn.exit]
            table[fn.exit] = {site: [s for s in out if s[0].call_site in (None, site)]
                              for site in {None} | {e.call_site for e, _, _ in out}}
    return table


def transfer(icfa: ICFA, client: ClientAnalysis, e: Edge, p: Place,
             state: tuple[FpMap, Any]) -> tuple[FpMap, Any] | None:
    """Full framework transfer; None means no contribution (bottom)."""
    fpm, cs = state
    op = e.op
    if isinstance(op, ThreadEntryOp):
        if not match_fp(fpm, op.thr, icfa.func_of(e.tgt)):
            return None
        return _bind_params(icfa, fpm, [(op.arg, op.param)]), client.transfer(e, p, cs)
    if isinstance(op, FuncEntryOp):
        return _bind_params(icfa, fpm, zip(op.args, op.params)), client.transfer(e, p, cs)
    if isinstance(op, EXIT_OPS):
        return {}, client.transfer(e, p, cs)
    return _intra_fpm(fpm, op), client.transfer(e, p, cs)


# ------------------------------------------------------------------ solve


@dataclass
class SolveResult:
    places: PlaceMap
    states: dict[int, tuple[FpMap, Any]]
    steps: int

    def at(self, place: Place) -> Any:
        """The client state at a place, or None when it was never reached."""
        pid = self.places.lookup(place)
        return None if pid is None else self.states[pid][1]


FS_MAX_STEPS = 2_000_000  # worklist pops before solve_fs gives up
FI_MAX_STEPS = 500_000    # worklist pops before solve_fi gives up


class _Worklist:
    """One state per place, starting from main's entry.

    add() joins a contribution into its place and re-queues the place only
    when its state grew; iterating pops the queued places until none is left.
    """

    def __init__(self, icfa: ICFA, client: ClientAnalysis, max_steps: int,
                 shuffle_seed: int | None = None):
        self.client = client
        self.max_steps = max_steps
        self.rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        self.places = PlaceMap()
        self.states: dict[int, tuple[FpMap, Any]] = {}
        self.work: deque[int] = deque()
        self.queued: set[int] = set()
        self.steps = 0
        self.add((icfa.entry_of(icfa.entry_fn),), ({}, client.initial()))

    def add(self, place: Place, contrib: tuple[FpMap, Any]) -> None:
        pid = self.places.intern(place)
        old = self.states.get(pid)
        if old is not None:
            contrib = (join_fp(old[0], contrib[0]),
                       self.client.join(old[1], contrib[1]))
            if contrib == old:
                return
        self.states[pid] = contrib
        if pid not in self.queued:
            self.queued.add(pid)
            self.work.append(pid)

    def __iter__(self) -> Iterator[tuple[int, Place]]:
        while self.work:
            self.steps += 1
            if self.steps > self.max_steps:
                raise DivergedError(f"fixpoint exceeded {self.max_steps} steps")
            if self.rng is not None:
                self.work.rotate(-self.rng.randrange(len(self.work)))
            pid = self.work.popleft()
            self.queued.discard(pid)
            yield pid, self.places.resolve(pid)


def solve_fs(icfa: ICFA, client: ClientAnalysis,
             shuffle_seed: int | None = None) -> SolveResult:
    """Flow-sensitive fixpoint from main's entry.

    Places step as next_place steps them, through the automaton's step
    table; edges the table marks plain pass the state on without a transfer.
    """
    wl = _Worklist(icfa, client, FS_MAX_STEPS, shuffle_seed)
    bound = icfa.place_length_bound()
    table = _step_table(icfa, client.ops)
    states = wl.states
    for pid, p in wl:
        st = states[pid]
        out = table[p[-1]]
        if type(out) is dict:  # a function exit
            out = out.get(p[-2] if len(p) > 1 else None, out[None])
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
                contrib = transfer(icfa, client, e, p, st)
            elif kind == INTRA:
                contrib = st
            else:  # an entry binding no function pointer, or a return
                contrib = ({}, st[1])
            if contrib is not None:
                wl.add(p2, contrib)
    return SolveResult(wl.places, wl.states, wl.steps)


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

    wl = _Worklist(icfa, client, FI_MAX_STEPS)
    fire: dict[tuple[str, int | None], list[Edge]] = {}
    for pid, p in wl:
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
                wl.add(fi_context(icfa, p2), contrib)
    return SolveResult(wl.places, wl.states, wl.steps)
