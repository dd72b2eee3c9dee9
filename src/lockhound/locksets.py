"""May- and must-lockset analyses over the place graph.

Both are flow-sensitive clients for the generic solver. Lockset elements are
abstract lock objects from the pointer analysis; STAR may appear in may-sets
(an acquisition of an unresolved lock) but never in must-sets.

May: grows on lock, shrinks on unlock only when the operand resolves to a
single object. Must: grows only on unambiguous lock, shrinks by everything an
unlock might release; merge is intersection, realized by the accumulating
solver (first contribution is kept, later ones intersect).

Both clients and the lock graph read each lock/unlock operand's value set
from one LockOperands table, so it is looked up once per place, or once per
edge when it does not depend on the context.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .frontend.icfa import ICFA, Edge, ThreadEntryOp
from .frontend.syntax import LockStmt, Unary, UnlockStmt, VarRef
from .places import Place
from .pointsto import STAR, TOP_STATE, PointsToResult, ValueSet

SYNC_OPS = (LockStmt, UnlockStmt, ThreadEntryOp)  # what the clients transfer on


class LockOperands(dict):
    """Value set of the lock/unlock operand leaving a place's location.

    A location has at most one lock/unlock out-edge, so the place is the
    whole key. An operand at one of the by_location locations has one value
    set in every context, so there it is keyed by the location instead and
    looked up once per edge. A key missing from the table is looked up in pt
    on first use, as pt.value_set(p, arg, at_sync=True). Equal value sets
    are kept as one object: there are few distinct ones, and many places.
    """

    def __init__(self, pt: PointsToResult, by_location: Collection[int] = ()):
        super().__init__()
        self.pt = pt
        self.by_location = by_location
        self.sets: dict[ValueSet, ValueSet] = {}

    def at(self, p: Place, e: Edge) -> ValueSet:
        key = e.src if e.src in self.by_location else p
        vs = self.get(key)
        if vs is None:
            vs = self.pt.value_set(p, e.op.arg, at_sync=True)
            vs = self[key] = self.sets.setdefault(vs, vs)
        return vs


def context_free_operands(icfa: ICFA, pt: PointsToResult) -> set[int]:
    """Locations of the lock/unlock operands whose value set needs no context.

    `&v` denotes v in every points-to state but TOP_STATE, where it reads as
    STAR. So it needs no context when no context is TOP_STATE. (With merged
    contexts, the one merged state is TOP_STATE exactly when some context
    is.)
    """
    if any(cs is TOP_STATE for _, cs in pt.solve.states.values()):
        return set()
    return {e.src for e in icfa.edges
            if isinstance(e.op, (LockStmt, UnlockStmt)) and isinstance(e.op.arg, Unary)
            and e.op.arg.op == "&" and isinstance(e.op.arg.operand, VarRef)}


class MayLockset:
    ops = SYNC_OPS

    def __init__(self, pt: PointsToResult, operands: LockOperands | None = None):
        self.operands = operands if operands is not None else LockOperands(pt)
        self.vs_queries = 0
        self.precise_queries = 0

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def _resolve(self, p: Place, e: Edge):
        vs = self.operands.at(p, e)
        self.vs_queries += 1
        if vs is not STAR and len(vs) == 1:
            self.precise_queries += 1
        return vs

    def transfer(self, e: Edge, p: Place, ls: frozenset) -> frozenset:
        if isinstance(e.op, LockStmt):
            vs = self._resolve(p, e)
            return ls | (frozenset([STAR]) if vs is STAR else vs)
        if isinstance(e.op, UnlockStmt):
            vs = self._resolve(p, e)
            if vs is not STAR and len(vs) == 1:
                return ls - vs
            return ls  # ambiguous release: keep everything possibly held
        if isinstance(e.op, ThreadEntryOp):
            return frozenset()
        return ls


@dataclass
class SelfLockReport:
    place: Place
    lock: object
    line: int


class MustLockset:
    ops = SYNC_OPS

    def __init__(self, pt: PointsToResult, operands: LockOperands | None = None):
        self.operands = operands if operands is not None else LockOperands(pt)
        self.self_locks: list[SelfLockReport] = []
        self._seen_self: set = set()

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def transfer(self, e: Edge, p: Place, ls: frozenset) -> frozenset:
        if isinstance(e.op, LockStmt):
            vs = self.operands.at(p, e)
            if vs is STAR or len(vs) != 1:
                return ls
            (lock,) = vs
            if lock in ls and (p, lock) not in self._seen_self:
                self._seen_self.add((p, lock))
                self.self_locks.append(SelfLockReport(p, lock, e.line))
            return ls | vs
        if isinstance(e.op, UnlockStmt):
            vs = self.operands.at(p, e)
            if vs is STAR:
                return frozenset()  # could release anything definitely held
            return ls - vs
        if isinstance(e.op, ThreadEntryOp):
            return frozenset()
        return ls


@dataclass
class LocksetResults:
    may: object   # SolveResult
    must: object  # SolveResult
    may_client: MayLockset
    must_client: MustLockset
    operands: LockOperands
    # (place id, place, lock edge) of each may place at a lock location
    lock_places: list[tuple[int, Place, Edge]]
    stats: dict = field(default_factory=dict)


def solve_locksets(icfa, pt: PointsToResult, shuffle_seed=None) -> LocksetResults:
    from .framework import solve_fs

    operands = LockOperands(pt, context_free_operands(icfa, pt))
    may_client = MayLockset(pt, operands)
    must_client = MustLockset(pt, operands)
    may = solve_fs(icfa, may_client, shuffle_seed=shuffle_seed)
    must = solve_fs(icfa, must_client, shuffle_seed=shuffle_seed)
    lock_at = {e.src: e for e in icfa.lock_edges()}
    lock_places = [(pid, p, lock_at[p[-1]])
                   for pid, p in enumerate(may.places.places()) if p[-1] in lock_at]
    q = may_client.vs_queries
    stats = {
        "lock_places": len(lock_places),
        "precise_fraction": (may_client.precise_queries / q) if q else 1.0,
        "self_locks": len(must_client.self_locks),
    }
    return LocksetResults(may, must, may_client, must_client, operands,
                          lock_places, stats)
