"""Concrete explicit-state reference executor.

Runs a program over all schedules (DFS with state memoization and a budget),
tracking for every thread both its concrete frames and the abstract place the
static analysis would assign. Collected facts:

* arrivals: (place, locks held) pairs seen on real executions,
* copairs: place pairs simultaneously occupied by two live threads,
* witnesses: cycles in the lock-allocation graph (threads blocked in a ring),
* rw: concrete cells read/written per edge (to validate dependency pruning).

Executions hitting undefined behavior (uninitialized reads, self-lock,
foreign unlock, invalid join, dangling dereference) are pruned at the
offending step: facts from the poisoned step onwards don't count.

Recursive calls are rejected: place abstraction folds them, and this
executor's job is to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SourceError
from .framework import entry_place
from .frontend.icfa import (
    ICFA, AssignOp, CreateOp, Edge, FuncEntryOp, FuncExitOp, GuardOp, JoinOp,
    LockOp, ReturnOp, SkipOp, ThreadEntryOp, ThreadJoinOp, UnlockOp,
)
from .frontend.syntax import (
    MUTEX, ArrayType, Binary, Expr, FieldAccess, FuncRef, Index, IntLit, Malloc,
    StructType, Unary, VarRef,
)
from .places import Place
from .pointsto import (
    AllocObj, ArrayCellObj, FieldObj, GlobalObj, LocalObj, ObjectModel,
)

UNINIT = ("uninit",)
MAX_DEPTH = 20_000  # longest schedule explored; deeper paths set truncated


class OracleUnsupported(SourceError):
    pass


class _UB(Exception):
    def __init__(self, why: str):
        self.why = why


@dataclass
class Witness:
    cycle: list[tuple[int, Place, tuple]]  # (tid, blocked place, lock cell)
    schedule: list[tuple[int, str]]

    def lock_cells(self) -> list[tuple]:
        return [c for (_, _, c) in self.cycle]


@dataclass
class OracleResult:
    arrivals: set = field(default_factory=set)     # (place, frozenset[cell])
    copairs: set = field(default_factory=set)      # sorted (place, place)
    witnesses: list = field(default_factory=list)
    rw: dict = field(default_factory=dict)         # edge idx -> (reads, writes)
    ub_events: int = 0
    terminals: int = 0
    states: int = 0
    truncated: bool = False
    serial_sites: dict = field(default_factory=dict)

    def abstract_cell(self, cell: tuple):
        """Abstract object naming a concrete cell."""
        kind = cell[0]
        if kind == "g":
            obj, path = GlobalObj(cell[1]), cell[2:]
        elif kind == "l":
            obj, path = LocalObj(cell[2]), cell[3:]
        else:
            obj, path = AllocObj(self.serial_sites[cell[1]]), cell[2:]
        for step in path:
            obj = ArrayCellObj(obj) if isinstance(step, int) else FieldObj(obj, step)
        return obj

    def abstract_locks(self, cells) -> frozenset:
        return frozenset(self.abstract_cell(c) for c in cells)


# State layout (all immutable, hashable):
#   threads: tuple of (place, frames, status, retval)
#     frames: tuple of (func, ret_edge_idx | None, saved_place | None)
#     status: "run" | "done" | "joined"
#   mem:    frozenset of (cell, value) pairs, one per cell
#   locks:  frozenset of (cell, owner) pairs, one per held mutex
#   counters: (next_serial,)
# Values: int | ("ptr", cell) | ("fn", name) | ("tid", k) | UNINIT


class Oracle:
    def __init__(self, icfa: ICFA, max_states: int = 100_000,
                 collect_copairs: bool = True):
        self.icfa = icfa
        self.model = ObjectModel(icfa)
        self.max_states = max_states
        self.collect_copairs = collect_copairs
        self.res = OracleResult()
        self._reads: set = set()
        self._ret_reads: dict[int, frozenset] = {}
        self._witness_keys: set = set()

    # ------------------------------------------------------------- driver

    def run(self) -> OracleResult:
        s0 = self._initial_state()
        visited = {s0}
        self._record_state(s0)
        path: list[tuple[int, str]] = []
        stack = [iter(self._expand(s0, path))]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            tid, tag, s2 = move
            path.append((tid, tag))
            if s2 in visited or len(path) > MAX_DEPTH:
                if len(path) > MAX_DEPTH:
                    self.res.truncated = True
                path.pop()
                continue
            if len(visited) >= self.max_states:
                self.res.truncated = True
                path.pop()
                break
            visited.add(s2)
            self._record_state(s2)
            stack.append(iter(self._expand(s2, path)))
        self.res.states = len(visited)
        return self.res

    def _expand(self, state, path) -> list:
        """Successors (tid, tag, state) of every runnable thread."""
        succs = []
        blocked: list[tuple[int, tuple]] = []   # (tid, lock cell)
        threads = state[0]
        alive = [t for t in range(len(threads)) if threads[t][2] == "run"]
        for tid in alive:
            try:
                move = self._step(state, tid)
            except _UB:
                self.res.ub_events += 1
                continue
            if move is None:
                continue
            kind, payload = move
            if kind == "ok":
                succs.append((tid,) + payload)
            elif kind == "lock-blocked":
                blocked.append((tid, payload))
        if blocked:
            self._check_lag(state, blocked, path)
        if not succs and not alive:
            self.res.terminals += 1
        return succs

    # ---------------------------------------------------------- recording

    def _record_state(self, state) -> None:
        threads, _, locks, _ = state
        held: dict[int, set] = {}
        for cell, owner in locks:
            held.setdefault(owner, set()).add(cell)
        places = []
        for t, (place, frames, status, _) in enumerate(threads):
            if status != "run":
                continue
            self.res.arrivals.add((place, frozenset(held.get(t, ()))))
            places.append(place)
        if self.collect_copairs:
            for a in range(len(places)):
                for b in range(a + 1, len(places)):
                    pair = tuple(sorted((places[a], places[b])))
                    self.res.copairs.add(pair)

    def _check_lag(self, state, blocked, path) -> None:
        threads, _, locks, _ = state
        owner = dict(locks)
        want = dict(blocked)
        for start in want:
            cycle = []
            t = start
            seen = set()
            while t in want and t not in seen:
                seen.add(t)
                cell = want[t]
                cycle.append((t, threads[t][0], cell))
                t = owner.get(cell)
                if t is None:
                    cycle = []
                    break
            if cycle and t == start:
                key = frozenset((p, c) for (_, p, c) in cycle)
                if key not in self._witness_keys:
                    self._witness_keys.add(key)
                    self.res.witnesses.append(Witness(cycle, list(path)))

    def _note_rw(self, edge: Edge, reads, writes) -> None:
        r, w = self.res.rw.setdefault(edge.idx, (set(), set()))
        r.update(reads)
        w.update(writes)

    # ------------------------------------------------------------ stepping

    def _initial_state(self):
        mem: dict[tuple, object] = {}
        for name, decl in self.icfa.prog.globals.items():
            self._init_global(mem, ("g", name), decl.typ)
        entry = self.icfa.entry_of(self.icfa.entry_fn)
        threads = (((entry,), ((self.icfa.entry_fn, None, None),), "run", None),)
        return (threads, frozenset(mem.items()), frozenset(), (0,))

    def _init_global(self, mem, cell, typ) -> None:
        if typ == MUTEX:
            return  # lock state lives in the lock table
        if isinstance(typ, StructType):
            for f in self.icfa.prog.structs.get(typ.name, []):
                self._init_global(mem, cell + (f.name,), f.typ)
        elif isinstance(typ, ArrayType):
            for i in range(typ.size):
                self._init_global(mem, cell + (i,), typ.element)
        else:
            mem[cell] = 0

    def _step(self, state, tid):
        """One scheduler choice. Returns ("ok", (tag, state)) or
        ("lock-blocked", cell) or None (join wait); raises _UB on poison."""
        threads, mem_t, _, _ = state
        place, frames, _, _ = threads[tid]
        loc = place[-1]
        func = frames[-1][0]
        out = self.icfa.out_edges[loc]
        entry_edges = [e for e in out if isinstance(e.op, FuncEntryOp)]
        intra = [e for e in out if not self.icfa.is_inter(e)]

        mem = dict(mem_t)
        self._reads = set()

        if entry_edges:
            return self._do_call(state, tid, entry_edges[0], mem)
        if loc == self.icfa.exit_of(func):
            return self._do_return(state, tid, mem)
        if not intra:
            raise AssertionError(f"no move at location {loc}")
        if isinstance(intra[0].op, GuardOp):
            v = self._eval(mem, tid, intra[0].op.cond)
            taken = None
            for e in intra:
                if bool(v) != e.op.negated:
                    taken = e
                    break
            assert taken is not None, "guard with no matching branch"
            return self._advance(state, tid, taken, "guard")
        e = intra[0]
        op = e.op
        if isinstance(op, SkipOp):
            return self._advance(state, tid, e, "skip")
        if isinstance(op, ReturnOp):
            return self._advance(state, tid, e, "ret-edge")
        if isinstance(op, AssignOp):
            return self._do_assign(state, tid, e, mem)
        if isinstance(op, LockOp):
            return self._do_lock(state, tid, e, mem)
        if isinstance(op, UnlockOp):
            return self._do_unlock(state, tid, e, mem)
        if isinstance(op, CreateOp):
            return self._do_create(state, tid, e, mem)
        if isinstance(op, JoinOp):
            return self._do_join(state, tid, e, mem)
        raise AssertionError(f"unhandled op {op}")

    # helpers to rebuild the immutable state ------------------------------

    def _advance(self, state, tid, e, tag, mem=None, locks=None, counters=None):
        """Move thread tid along intra edge e. The frozen mem, locks and
        counters given replace the state's; the others pass through."""
        threads, mem0, locks0, counters0 = state
        place, frames, status, retval = threads[tid]
        th = (place[:-1] + (e.tgt,), frames, status, retval)
        threads = threads[:tid] + (th,) + threads[tid + 1:]
        return ("ok", (tag, (threads, mem0 if mem is None else mem,
                             locks0 if locks is None else locks,
                             counters0 if counters is None else counters)))

    # individual operations ----------------------------------------------

    def _do_assign(self, state, tid, e, mem):
        op = e.op
        serial = state[3][0]
        counters = None
        if isinstance(op.rhs, Malloc):
            v = ("ptr", ("h", serial))
            self.res.serial_sites[serial] = e.src
            counters = (serial + 1,)
        else:
            v = self._eval(mem, tid, op.rhs)
        cell = self._cell_of(mem, tid, op.lhs)
        reads = set(self._reads)
        mem[cell] = v
        self._note_rw(e, reads, {cell})
        return self._advance(state, tid, e, "assign", mem=frozenset(mem.items()),
                             counters=counters)

    def _do_lock(self, state, tid, e, mem):
        cell = self._lock_operand(mem, tid, e.op.arg)
        self._note_rw(e, set(self._reads), set())
        owner = dict(state[2]).get(cell)
        if owner == tid:
            raise _UB("relock of a held mutex")
        if owner is not None:
            return ("lock-blocked", cell)
        return self._advance(state, tid, e, "lock", locks=state[2] | {(cell, tid)})

    def _do_unlock(self, state, tid, e, mem):
        cell = self._lock_operand(mem, tid, e.op.arg)
        self._note_rw(e, set(self._reads), set())
        if (cell, tid) not in state[2]:
            raise _UB("unlock of a mutex not held by this thread")
        return self._advance(state, tid, e, "unlock", locks=state[2] - {(cell, tid)})

    def _lock_operand(self, mem, tid, arg) -> tuple:
        v = self._eval(mem, tid, arg)
        if not (isinstance(v, tuple) and len(v) == 2 and v[0] == "ptr"):
            raise _UB("lock/unlock through a non-pointer value")
        cell = v[1]
        if self.model.type_of(self.res.abstract_cell(cell)) != MUTEX:
            raise _UB("lock/unlock target is not a mutex")
        return cell

    def _do_create(self, state, tid, e, mem):
        threads = state[0]
        op = e.op
        tv = self._eval(mem, tid, op.tid)
        if not (isinstance(tv, tuple) and tv[0] == "ptr"):
            raise _UB("thread id out-argument is not a pointer")
        fv = self._eval(mem, tid, op.fn)
        if not (isinstance(fv, tuple) and fv[0] == "fn"):
            raise _UB("created start routine is not a function")
        fname = fv[1]
        av = self._eval(mem, tid, op.arg)
        reads = set(self._reads)
        te = next((x for x in self.icfa.out_edges[e.src]
                   if isinstance(x.op, ThreadEntryOp)
                   and self.icfa.func_of(x.tgt) == fname), None)
        if te is None:
            raise _UB(f"function {fname} cannot be a thread start routine")
        new_tid = len(threads)
        if new_tid > 16:
            raise OracleUnsupported("too many threads for exhaustive search")
        mem[tv[1]] = ("tid", new_tid)
        self._note_rw(e, reads, {tv[1]})

        place, frames, status, retval = threads[tid]
        tf_place = entry_place(self.icfa, place, te.tgt)
        if len(tf_place) != len(place) + 1:
            raise OracleUnsupported("recursive thread creation")
        param = te.op.param
        pcell = ("l", new_tid, param)
        mem[pcell] = av
        self._note_rw(te, reads, {pcell})

        p2 = place[:-1] + (e.tgt,)
        th = (p2, frames, status, retval)
        new_th = (tf_place, ((fname, None, None),), "run", None)
        threads = threads[:tid] + (th,) + threads[tid + 1:] + (new_th,)
        return ("ok", ("create", (threads, frozenset(mem.items()), state[2], state[3])))

    def _do_join(self, state, tid, e, mem):
        threads = state[0]
        op = e.op
        tv = self._eval(mem, tid, op.tid)
        tid_reads = set(self._reads)
        if not (isinstance(tv, tuple) and tv[0] == "tid"):
            raise _UB("join on an invalid thread id")
        target = tv[1]
        t_place, t_frames, t_status, t_retval = threads[target]
        if t_status == "joined":
            raise _UB("thread joined twice")
        if t_status == "run":
            return None  # wait
        self._note_rw(e, tid_reads, set())
        threads = threads[:target] + ((t_place, t_frames, "joined", t_retval),) \
            + threads[target + 1:]
        state = (threads,) + state[1:]
        if op.ret is None:
            return self._advance(state, tid, e, "join")
        cell = self._cell_of(mem, tid, op.ret)
        mem[cell] = t_retval
        for tj in self.icfa.out_edges[self.icfa.exit_of(t_frames[0][0])]:
            if isinstance(tj.op, ThreadJoinOp) and tj.tgt == e.tgt:
                self._note_rw(tj, self._ret_reads.get(target, frozenset()), {cell})
                break
        return self._advance(state, tid, e, "join", mem=frozenset(mem.items()))

    def _do_call(self, state, tid, e, mem):
        threads = state[0]
        op = e.op
        callee = self.icfa.func_of(e.tgt)
        place, frames, status, retval = threads[tid]
        for fr in frames:
            if fr[0] == callee:
                raise OracleUnsupported(f"recursive call of {callee}")
        vals = []
        reads: set = set()
        for a in op.args:
            self._reads = set()
            vals.append(self._eval(mem, tid, a))
            reads |= self._reads
        writes = set()
        for par, v in zip(op.params, vals):
            cell = ("l", tid, par)
            mem[cell] = v
            writes.add(cell)
        self._note_rw(e, reads, writes)
        ret_edge = next(x for x in self.icfa.out_edges[self.icfa.exit_of(callee)]
                        if isinstance(x.op, FuncExitOp) and x.call_site == e.src)
        p2 = entry_place(self.icfa, place, e.tgt)
        if len(p2) != len(place) + 1:
            raise OracleUnsupported("recursive call context")
        new_frames = frames + ((callee, ret_edge.idx, place),)
        th = (p2, new_frames, status, retval)
        threads = threads[:tid] + (th,) + threads[tid + 1:]
        mem_f = frozenset(mem.items()) if writes else state[1]
        return ("ok", ("call", (threads, mem_f, state[2], state[3])))

    def _do_return(self, state, tid, mem):
        threads = state[0]
        place, frames, status, retval = threads[tid]
        func = frames[-1][0]
        fi = self.icfa.functions[func]
        self._reads = set()
        v = 0
        if fi.ret_expr is not None:
            v = self._eval(mem, tid, fi.ret_expr)
        ret_reads = frozenset(self._reads)

        if len(frames) == 1:
            self._ret_reads[tid] = ret_reads
            th = (place, frames, "done", v)
            threads = threads[:tid] + (th,) + threads[tid + 1:]
            for cell in list(mem):
                if cell[0] == "l" and cell[1] == tid:
                    del mem[cell]
            return ("ok", ("finish", (threads, frozenset(mem.items()),
                                      state[2], state[3])))

        _, ret_edge_idx, saved_place = frames[-1]
        e = self.icfa.edges[ret_edge_idx]
        for cell in list(mem):
            if cell[0] == "l" and cell[1] == tid and "::" in str(cell[2]) \
                    and cell[2].startswith(func + "::"):
                del mem[cell]
        frames = frames[:-1]
        p2 = saved_place[:-1] + (e.tgt,)
        th = (p2, frames, status, retval)
        threads = threads[:tid] + (th,) + threads[tid + 1:]
        writes = set()
        lhs_reads: set = set()
        if e.op.lhs is not None:
            self._reads = set()
            cell = self._cell_of(mem, tid, e.op.lhs)
            lhs_reads = set(self._reads)
            mem[cell] = v
            writes = {cell}
        self._note_rw(e, ret_reads | lhs_reads, writes)
        return ("ok", ("return", (threads, frozenset(mem.items()), state[2], state[3])))

    # ---------------------------------------------------------- evaluation

    def _read(self, mem, cell):
        if cell not in mem:
            raise _UB(f"read of dead or unmapped cell {cell!r}")
        v = mem[cell]
        if v == UNINIT:
            raise _UB(f"read of uninitialized cell {cell!r}")
        self._reads.add(cell)
        return v

    def _eval(self, mem, tid, e: Expr):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, FuncRef):
            return ("fn", e.name)
        if isinstance(e, VarRef):
            return self._read(mem, self._var_cell(tid, e.name))
        if isinstance(e, Unary):
            if e.op == "&":
                return ("ptr", self._cell_of(mem, tid, e.operand))
            if e.op == "*":
                v = self._eval(mem, tid, e.operand)
                if not (isinstance(v, tuple) and v[0] == "ptr"):
                    raise _UB("dereference of a non-pointer value")
                return self._read(mem, v[1])
            v = self._eval(mem, tid, e.operand)
            if e.op == "!":
                return 0 if v != 0 else 1
            if e.op == "-":
                if not isinstance(v, int):
                    raise _UB("negation of a non-integer")
                return -v
            raise AssertionError(e.op)
        if isinstance(e, Binary):
            lv = self._eval(mem, tid, e.left)
            rv = self._eval(mem, tid, e.right)
            if e.op == "==":
                return 1 if lv == rv else 0
            if e.op == "!=":
                return 1 if lv != rv else 0
            if not (isinstance(lv, int) and isinstance(rv, int)):
                raise _UB(f"arithmetic on non-integers via {e.op}")
            if e.op == "+":
                return lv + rv
            if e.op == "-":
                return lv - rv
            if e.op == "<":
                return 1 if lv < rv else 0
            if e.op == "<=":
                return 1 if lv <= rv else 0
            if e.op == ">":
                return 1 if lv > rv else 0
            if e.op == ">=":
                return 1 if lv >= rv else 0
            raise AssertionError(e.op)
        if isinstance(e, (FieldAccess, Index)):
            return self._read(mem, self._cell_of(mem, tid, e))
        raise AssertionError(f"cannot evaluate {e!r}")

    def _var_cell(self, tid, name: str) -> tuple:
        if "::" in name:
            return ("l", tid, name)
        return ("g", name)

    def _cell_of(self, mem, tid, e: Expr) -> tuple:
        if isinstance(e, VarRef):
            return self._var_cell(tid, e.name)
        if isinstance(e, Unary) and e.op == "*":
            v = self._eval(mem, tid, e.operand)
            if not (isinstance(v, tuple) and v[0] == "ptr"):
                raise _UB("dereference of a non-pointer value")
            return v[1]
        if isinstance(e, FieldAccess):
            if e.arrow:
                v = self._eval(mem, tid, e.base)
                if not (isinstance(v, tuple) and v[0] == "ptr"):
                    raise _UB("-> applied to a non-pointer value")
                return v[1] + (e.name,)
            return self._cell_of(mem, tid, e.base) + (e.name,)
        if isinstance(e, Index):
            iv = self._eval(mem, tid, e.index)
            if not isinstance(iv, int):
                raise _UB("array index is not an integer")
            base = self._cell_of(mem, tid, e.base)
            bt = e.base.typ
            if isinstance(bt, ArrayType) and not (0 <= iv < bt.size):
                raise _UB("array index out of bounds")
            return base + (iv,)
        raise _UB(f"expression {e!r} is not an lvalue")


def run_oracle(icfa: ICFA, **kw) -> OracleResult:
    return Oracle(icfa, **kw).run()
