"""May- and must-lockset analyses over the place graph.

Both are flow-sensitive clients for the generic solver. Lockset elements are
abstract lock objects from the pointer analysis; STAR may appear in may-sets
(an acquisition of an unresolved lock) but never in must-sets.

May: grows on lock, shrinks on unlock only when the operand resolves to a
single object. Must: grows only on unambiguous lock, shrinks by everything an
unlock might release; merge is intersection, realized by the accumulating
solver (first contribution is kept, later ones intersect).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend.icfa import Edge, LockOp, ThreadEntryOp, UnlockOp
from .places import Place
from .pointsto import STAR, PointsToResult


class MayLockset:
    def __init__(self, pt: PointsToResult):
        self.pt = pt
        self.vs_queries = 0
        self.precise_queries = 0

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def _resolve(self, p: Place, e: Edge):
        vs = self.pt.value_set(p, e.op.arg, at_sync=True)
        self.vs_queries += 1
        if vs is not STAR and len(vs) == 1:
            self.precise_queries += 1
        return vs

    def transfer(self, e: Edge, p: Place, ls: frozenset) -> frozenset:
        if isinstance(e.op, LockOp):
            vs = self._resolve(p, e)
            return ls | (frozenset([STAR]) if vs is STAR else vs)
        if isinstance(e.op, UnlockOp):
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
    def __init__(self, pt: PointsToResult):
        self.pt = pt
        self.self_locks: list[SelfLockReport] = []
        self._seen_self: set = set()

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def transfer(self, e: Edge, p: Place, ls: frozenset) -> frozenset:
        if isinstance(e.op, LockOp):
            vs = self.pt.value_set(p, e.op.arg, at_sync=True)
            if vs is STAR or len(vs) != 1:
                return ls
            (lock,) = vs
            if lock in ls and (p, lock) not in self._seen_self:
                self._seen_self.add((p, lock))
                self.self_locks.append(SelfLockReport(p, lock, e.line))
            return ls | vs
        if isinstance(e.op, UnlockOp):
            vs = self.pt.value_set(p, e.op.arg, at_sync=True)
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
    stats: dict = field(default_factory=dict)


def solve_locksets(icfa, pt: PointsToResult, shuffle_seed=None) -> LocksetResults:
    from .framework import solve_fs

    may_client = MayLockset(pt)
    must_client = MustLockset(pt)
    may = solve_fs(icfa, may_client, shuffle_seed=shuffle_seed)
    must = solve_fs(icfa, must_client, shuffle_seed=shuffle_seed)
    q = may_client.vs_queries
    stats = {
        "lock_places": sum(
            1 for pid, (fpm, ls) in may.states.items()
            if any(isinstance(e.op, LockOp)
                   for e in icfa.out_edges[may.places.resolve(pid)[-1]])),
        "precise_fraction": (may_client.precise_queries / q) if q else 1.0,
        "self_locks": len(must_client.self_locks),
    }
    return LocksetResults(may, must, may_client, must_client, stats)
