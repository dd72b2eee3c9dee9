"""Generic dataflow framework over places.

States are pairs of a function-pointer map (tracking which functions a
pointer parameter can start as a thread) and a client state. The framework
walks the automaton forward from main's entry, maintaining one state per
place; client analyses plug in initial/join/transfer.

Two solvers are provided: solve_fs explores flow-sensitive places (call-site
chains ending at the current location) and solve_fi explores flow-insensitive
places (the same call-site chains with the final location canonicalized to
the function's entry, each function's intra edges composed to a local
fixpoint).  Keeping call sites in the flow-insensitive contexts is what lets
two calls of the same lock wrapper from one caller stay distinguishable.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Protocol

from .errors import DivergedError
from .frontend.icfa import (
    ICFA, AssignOp, Edge, ENTRY_OPS, EXIT_OPS, FuncEntryOp, FuncExitOp, Op,
    ThreadEntryOp, ThreadExitOp, ThreadJoinOp,
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


def solve_fs(icfa: ICFA, client: ClientAnalysis, places: PlaceMap | None = None,
             max_steps: int = 2_000_000, shuffle_seed: int | None = None) -> SolveResult:
    """Flow-sensitive fixpoint from main's entry."""
    places = places if places is not None else PlaceMap()
    bound = icfa.place_length_bound()
    p0: Place = (icfa.entry_of(icfa.entry_fn),)
    id0 = places.intern(p0)
    states: dict[int, tuple[FpMap, Any]] = {id0: ({}, client.initial())}
    work: deque[int] = deque([id0])
    queued = {id0}
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    steps = 0

    while work:
        steps += 1
        if steps > max_steps:
            raise DivergedError(f"fixpoint exceeded {max_steps} steps")
        if rng is None:
            pid = work.popleft()
        else:
            i = rng.randrange(len(work))
            work.rotate(-i)
            pid = work.popleft()
            work.rotate(i)
        queued.discard(pid)
        p = places.resolve(pid)
        st = states[pid]
        for e in icfa.out_edges[top(p)]:
            p2 = next_place(icfa, e, p)
            if p2 is None:
                continue
            assert len(p2) <= bound, "place length bound violated"
            contrib = transfer(icfa, client, e, p, st)
            if contrib is None:
                continue
            pid2 = places.intern(p2)
            old = states.get(pid2)
            if old is None:
                new = contrib
            else:
                new = (join_fp(old[0], contrib[0]), client.join(old[1], contrib[1]))
                if new == old:
                    continue
            states[pid2] = new
            if pid2 not in queued:
                queued.add(pid2)
                work.append(pid2)
    return SolveResult(places, states, steps)


def fi_context(icfa: ICFA, p: Place) -> Place:
    """Flow-insensitive image of a place.

    The call-site chain is kept as is; only the current location collapses
    to its function's entry, so one state covers the whole function body
    per calling context.
    """
    return p[:-1] + (icfa.entry_of(icfa.func_of(p[-1])),)


def solve_fi(icfa: ICFA, client: ClientAnalysis, places: PlaceMap | None = None,
             max_steps: int = 500_000, edge_filter=None) -> SolveResult:
    """Flow-insensitive fixpoint: one state per call-site chain.

    Each processing round composes the function's intra-edge transfers to a
    local fixpoint before propagating along inter-function edges. edge_filter
    (if given) decides which edges the client is applied to at all.
    """
    places = places if places is not None else PlaceMap()
    intra: dict[str, list[Edge]] = {f: [] for f in icfa.functions}
    inter: dict[str, list[Edge]] = {f: [] for f in icfa.functions}
    for e in icfa.edges:
        (inter if icfa.is_inter(e) else intra)[icfa.func_of(e.src)].append(e)

    p0: Place = (icfa.entry_of(icfa.entry_fn),)
    id0 = places.intern(p0)
    states: dict[int, tuple[FpMap, Any]] = {id0: ({}, client.initial())}
    work: deque[int] = deque([id0])
    queued = {id0}
    steps = 0

    def allowed(e: Edge) -> bool:
        return edge_filter is None or edge_filter(e)

    while work:
        steps += 1
        if steps > max_steps:
            raise DivergedError(f"fixpoint exceeded {max_steps} steps")
        pid = work.popleft()
        queued.discard(pid)
        p = places.resolve(pid)
        f = icfa.func_of(top(p))
        fpm, cs = states[pid]

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
        if (fpm, cs) != states[pid]:
            states[pid] = (fpm, cs)

        for e in inter[f]:
            if isinstance(e.op, (FuncExitOp, ThreadExitOp)):
                if len(p) < 2 or p[-2] != e.call_site:
                    continue
                p2 = p[:-2] + (icfa.entry_of(icfa.func_of(e.tgt)),)
            elif isinstance(e.op, ThreadJoinOp):
                if len(p) < 2:
                    continue
                p2 = p[:-2] + (icfa.entry_of(icfa.func_of(e.tgt)),)
            else:  # entry edges push the call site, like the fs solver
                if isinstance(e.op, ThreadEntryOp) and not match_fp(fpm, e.op.thr, icfa.func_of(e.tgt)):
                    continue
                if not allowed(e):
                    continue
                p2 = entry_place(icfa, p[:-1] + (e.src,), e.tgt)
            if isinstance(e.op, ENTRY_OPS):
                fpm2 = _bind_params(icfa, fpm, zip(e.op.args, e.op.params)) \
                    if isinstance(e.op, FuncEntryOp) \
                    else _bind_params(icfa, fpm, [(e.op.arg, e.op.param)])
            else:
                fpm2 = {}
            cs2 = client.transfer(e, p, cs) if allowed(e) else cs
            pid2 = places.intern(p2)
            old = states.get(pid2)
            if old is None:
                new = (fpm2, cs2)
            else:
                new = (join_fp(old[0], fpm2), client.join(old[1], cs2))
                if new == old:
                    continue
            states[pid2] = new
            if pid2 not in queued:
                queued.add(pid2)
                work.append(pid2)
    return SolveResult(places, states, steps)
