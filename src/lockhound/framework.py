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


def _intra_fpm(fpm: FpMap, op: Op) -> FpMap:
    if isinstance(op, AssignOp) and isinstance(op.lhs, VarRef) and is_fnptr(op.lhs.typ):
        out = dict(fpm)
        out[op.lhs.name] = DIRTY
        return out
    return fpm


# ------------------------------------------------------------- place steps


def entry_place(icfa: ICFA, p: Place, entry_loc: int) -> Place:
    """Append the entered location, collapsing recursive re-entries.

    If some element of p already belongs to the entered function, the place
    is cut back to the prefix before it, which bounds place lengths.
    """
    f = icfa.func_of(entry_loc)
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
    """Flow-sensitive fixpoint from main's entry."""
    wl = _Worklist(icfa, client, FS_MAX_STEPS, shuffle_seed)
    bound = icfa.place_length_bound()
    exits = {fn.exit for fn in icfa.functions.values()}
    fire: dict[tuple[int, int | None], list[Edge]] = {}
    for pid, p in wl:
        st = wl.states[pid]
        edges = icfa.out_edges[top(p)]
        for e in _firing(fire, top(p), edges, p) if top(p) in exits else edges:
            p2 = next_place(icfa, e, p)
            if p2 is None:
                continue
            assert len(p2) <= bound, "place length bound violated"
            contrib = transfer(icfa, client, e, p, st)
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
