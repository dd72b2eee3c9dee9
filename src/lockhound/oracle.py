"""Concrete explicit-state reference executor.

Runs a program over all schedules (DFS with state memoization and a budget),
tracking for every thread the abstract place the static analysis would
assign. Recursion is rejected, so the place is also the thread's call stack:
its last location is where the thread stands, and the locations before it
are the call sites to return to, down to the create site that started the
thread (below it lies the creator's context); the main thread has none.
Collected facts:

* arrivals: (place, locks held) pairs seen on real executions,
* copairs: place pairs simultaneously occupied by two live threads,
* witnesses: cycles in the lock-allocation graph (threads blocked in a ring),
* rw: concrete cells read/written per edge (to validate dependency pruning).

Per-state work is only what the state needs. A step table, built once per
program, says what a thread standing at each location does next: call
through the entry edge, leave the function, take the guard branch that
holds, or run the one intra op. Expanding a state builds one read-only dict
of its memory, only if some step evaluates an expression, and shares it
among the steps of all threads; the steps that write derive the successor's
memory from the frozen one instead of copying the dict.

Executions hitting undefined behavior (uninitialized reads, self-lock,
foreign unlock, invalid join, dangling dereference) are pruned at the
offending step: facts from the poisoned step onwards don't count.

Recursive calls are rejected: place abstraction folds them, and this
executor's job is to be exact. A call is recursive exactly when entering the
callee would not lengthen the place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import SourceError
from .framework import entry_place, next_place
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
#   threads: tuple of (place, status, retval)
#     place:  the thread's call stack (see the module docstring); it ends
#             at the thread function's exit once the thread is done
#     status: "run" | "done" | "joined"
#   mem:    frozenset of (cell, value) pairs, one per cell
#   locks:  frozenset of (cell, owner) pairs, one per held mutex
#   allocs: tuple of allocations made so far, one count per malloc site
# Values: int | ("ptr", cell) | ("fn", name) | ("tid", k) | UNINIT
# Heap cells are ("h", serial, *path). A serial stands for the n-th
# allocation at one site, numbered in the order the search first makes it,
# so every serial names exactly one site on every path.
#
# Expanding a state shares one read-only dict of its mem among the steps of
# all its threads, built for the first step that evaluates an expression. A
# step that writes never copies that dict: it derives the successor's mem
# from the frozenset by removing the pairs it overwrites or kills and adding
# the pairs it writes.


class Move(NamedTuple):
    """What a thread standing at one location does next."""
    kind: str        # call, exit, guard, skip, ret-edge, assign, lock,
                     # unlock, create, join, or none (no move: an error)
    arg: object      # the entry edge, the guard edges in order, the intra
                     # edge, None at an exit, or why there is no move
    reads_mem: bool  # does the step evaluate expressions?
    run: Callable    # run(oracle, state, tid, arg, mem)


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
        self._moves = [self._move_at(loc) for loc in range(len(icfa.locations))]
        self._alloc_index: dict[int, int] = {}   # malloc site -> allocs slot
        self._serials: dict[tuple[int, int], int] = {}  # (site, n) -> serial
        self._thread_entries: dict[tuple[int, str], Edge] = {}
        self._func_exits: dict[tuple[int, int], Edge] = {}  # (exit, site)
        for e in icfa.edges:
            op = e.op
            if isinstance(op, AssignOp) and isinstance(op.rhs, Malloc):
                self._alloc_index.setdefault(e.src, len(self._alloc_index))
            elif isinstance(op, ThreadEntryOp):
                self._thread_entries.setdefault((e.src, icfa.func_of(e.tgt)), e)
            elif isinstance(op, FuncExitOp):
                self._func_exits.setdefault((e.src, e.call_site), e)
        self._is_mutex: dict[tuple, bool] = {}   # cell -> names a mutex?

    def _move_at(self, loc: int) -> Move:
        """The step table entry of loc: its entry edge first, then its
        function's exit, then its intra edges (every guard branch in order,
        or the one op)."""
        icfa = self.icfa
        out = icfa.out_edges[loc]
        for e in out:
            if isinstance(e.op, FuncEntryOp):
                return Move("call", e, True, Oracle._do_call)
        if loc == icfa.exit_of(icfa.func_of(loc)):
            return Move("exit", None, True, Oracle._do_return)
        intra = [e for e in out if not icfa.is_inter(e)]
        if not intra:
            return Move("none", f"no move at location {loc}", False,
                        Oracle._no_move)
        op = intra[0].op
        if isinstance(op, GuardOp):
            return Move("guard", tuple(intra), True, Oracle._do_guard)
        if type(op) not in _INTRA_STEPS:
            return Move("none", f"unhandled op {op}", False, Oracle._no_move)
        kind, reads_mem, run = _INTRA_STEPS[type(op)]
        return Move(kind, intra[0], reads_mem, run)

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
            if len(path) >= MAX_DEPTH:
                self.res.truncated = True
                continue
            tid, tag, s2 = move
            seen = len(visited)
            visited.add(s2)  # one hash: a known state leaves the size as is
            if len(visited) == seen:
                continue
            if seen >= self.max_states:
                visited.discard(s2)
                self.res.truncated = True
                break
            path.append((tid, tag))
            self._record_state(s2, (tid, len(s2[0]) - 1) if tag == "create"
                               else (tid,))
            stack.append(iter(self._expand(s2, path)))
        self.res.states = len(visited)
        return self.res

    def _expand(self, state, path) -> list:
        """Successors (tid, tag, state) of every runnable thread."""
        succs = []
        blocked: list[tuple[int, tuple]] = []   # (tid, lock cell)
        mem = None  # state[1] as a dict, once a step reads it
        alive = False
        for tid, th in enumerate(state[0]):
            if th[1] != "run":
                continue
            alive = True
            _, arg, reads_mem, run = self._moves[th[0][-1]]
            if reads_mem and mem is None:
                mem = dict(state[1])
            self._reads = set()
            try:
                tag, s2 = run(self, state, tid, arg, mem)
            except _UB:
                self.res.ub_events += 1
                continue
            if tag is None:
                if s2 is not None:
                    blocked.append((tid, s2))
            else:
                succs.append((tid, tag, s2))
        if blocked:
            self._check_lag(state, blocked, path)
        if not succs and not alive:
            self.res.terminals += 1
        return succs

    # ---------------------------------------------------------- recording

    def _record_state(self, state, movers=None) -> None:
        """Record the arrivals and co-occupied pairs of state that involve a
        thread in movers (every thread when None). After a step, the movers
        are the stepping thread and any thread it created: every other
        thread kept its place and locks, as recorded for the predecessor."""
        threads, _, locks, _ = state
        arrivals = self.res.arrivals
        copairs = self.res.copairs if self.collect_copairs else None
        if movers is None:
            movers = range(len(threads))
        for t in movers:
            place, status, _ = threads[t]
            if status != "run":
                continue
            cells = [c for c, owner in locks if owner == t] if locks else None
            arrivals.add((place, frozenset(cells) if cells else _NO_LOCKS))
            if copairs is not None:
                for u, (other, ustatus, _) in enumerate(threads):
                    if u != t and ustatus == "run":
                        copairs.add((place, other) if place <= other
                                    else (other, place))

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
        rw = self.res.rw.get(edge.idx)
        if rw is None:
            self.res.rw[edge.idx] = (set(reads), set(writes))
        else:
            rw[0].update(reads)
            rw[1].update(writes)

    # ------------------------------------------------------------ stepping

    def _initial_state(self):
        mem: dict[tuple, object] = {}
        for name, decl in self.icfa.prog.globals.items():
            self._init_global(mem, ("g", name), decl.typ)
        entry = self.icfa.entry_of(self.icfa.entry_fn)
        threads = (((entry,), "run", None),)
        return (threads, frozenset(mem.items()), frozenset(),
                (0,) * len(self._alloc_index))

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

    # helpers to rebuild the immutable state ------------------------------

    def _advance(self, state, tid, e, tag, mem=None, locks=None, allocs=None):
        """Move thread tid along intra edge e. The frozen mem, locks and
        allocs given replace the state's; the others pass through."""
        threads, mem0, locks0, allocs0 = state
        place, status, retval = threads[tid]
        th = (place[:-1] + (e.tgt,), status, retval)
        threads = threads[:tid] + (th,) + threads[tid + 1:]
        return (tag, (threads, mem0 if mem is None else mem,
                      locks0 if locks is None else locks,
                      allocs0 if allocs is None else allocs))

    @staticmethod
    def _store(mem_t: frozenset, mem: dict, writes: dict, kills=()) -> frozenset:
        """mem_t (read as the dict mem) without the cells in kills and with
        every cell in writes bound to its new value."""
        old = [(c, mem[c]) for c in writes if c in mem]
        old += [(c, mem[c]) for c in kills]
        return mem_t.difference(old).union(writes.items())

    # individual operations ----------------------------------------------

    # Every step is run(oracle, state, tid, arg, mem) with the arg of its
    # Move and the shared dict of state[1] (None when the step reads no
    # memory). It returns (tag, successor), or (None, cell) when the thread
    # blocks on the mutex cell, or (None, None) while it waits in a join; it
    # raises _UB on poison.

    def _no_move(self, state, tid, why, mem):
        raise AssertionError(why)

    def _do_skip(self, state, tid, e, mem):
        return self._advance(state, tid, e, "skip")

    def _do_ret_edge(self, state, tid, e, mem):
        return self._advance(state, tid, e, "ret-edge")

    def _do_guard(self, state, tid, edges, mem):
        v = bool(self._eval(mem, tid, edges[0].op.cond))
        for e in edges:
            if v != e.op.negated:
                return self._advance(state, tid, e, "guard")
        raise AssertionError("guard with no matching branch")

    def _do_assign(self, state, tid, e, mem):
        op = e.op
        allocs = None
        if isinstance(op.rhs, Malloc):
            allocs = state[3]
            k = self._alloc_index[e.src]
            n = allocs[k]
            serial = self._serials.get((e.src, n))
            if serial is None:
                serial = self._serials[e.src, n] = len(self._serials)
                self.res.serial_sites[serial] = e.src
            v = ("ptr", ("h", serial))
            allocs = allocs[:k] + (n + 1,) + allocs[k + 1:]
        else:
            v = self._eval(mem, tid, op.rhs)
        cell = self._cell_of(mem, tid, op.lhs)
        self._note_rw(e, self._reads, (cell,))
        return self._advance(state, tid, e, "assign",
                             mem=self._store(state[1], mem, {cell: v}),
                             allocs=allocs)

    def _do_lock(self, state, tid, e, mem):
        cell = self._lock_operand(mem, tid, e.op.arg)
        self._note_rw(e, self._reads, ())
        locks = state[2]
        for c, owner in locks:
            if c == cell:
                if owner == tid:
                    raise _UB("relock of a held mutex")
                return (None, cell)
        return self._advance(state, tid, e, "lock", locks=locks | {(cell, tid)})

    def _do_unlock(self, state, tid, e, mem):
        cell = self._lock_operand(mem, tid, e.op.arg)
        self._note_rw(e, self._reads, ())
        if (cell, tid) not in state[2]:
            raise _UB("unlock of a mutex not held by this thread")
        return self._advance(state, tid, e, "unlock", locks=state[2] - {(cell, tid)})

    def _lock_operand(self, mem, tid, arg) -> tuple:
        v = self._eval(mem, tid, arg)
        if not (isinstance(v, tuple) and len(v) == 2 and v[0] == "ptr"):
            raise _UB("lock/unlock through a non-pointer value")
        cell = v[1]
        is_mutex = self._is_mutex.get(cell)
        if is_mutex is None:
            is_mutex = self._is_mutex[cell] = \
                self.model.type_of(self.res.abstract_cell(cell)) == MUTEX
        if not is_mutex:
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
        te = self._thread_entries.get((e.src, fname))
        if te is None:
            raise _UB(f"function {fname} cannot be a thread start routine")
        new_tid = len(threads)
        if new_tid > 16:
            raise OracleUnsupported("too many threads for exhaustive search")
        writes = {tv[1]: ("tid", new_tid)}
        self._note_rw(e, self._reads, (tv[1],))

        place, status, retval = threads[tid]
        tf_place = entry_place(self.icfa, place, te.tgt)
        if len(tf_place) != len(place) + 1:
            raise OracleUnsupported("recursive thread creation")
        pcell = ("l", new_tid, te.op.param)
        writes[pcell] = av
        self._note_rw(te, self._reads, (pcell,))

        th = (place[:-1] + (e.tgt,), status, retval)
        new_th = (tf_place, "run", None)
        threads = threads[:tid] + (th,) + threads[tid + 1:] + (new_th,)
        return ("create", (threads, self._store(state[1], mem, writes),
                           state[2], state[3]))

    def _do_join(self, state, tid, e, mem):
        threads = state[0]
        op = e.op
        tv = self._eval(mem, tid, op.tid)
        if not (isinstance(tv, tuple) and tv[0] == "tid"):
            raise _UB("join on an invalid thread id")
        target = tv[1]
        t_place, t_status, t_retval = threads[target]
        if t_status == "joined":
            raise _UB("thread joined twice")
        if t_status == "run":
            return (None, None)  # wait
        self._note_rw(e, self._reads, ())
        threads = threads[:target] + ((t_place, "joined", t_retval),) \
            + threads[target + 1:]
        state = (threads,) + state[1:]
        if op.ret is None:
            return self._advance(state, tid, e, "join")
        cell = self._cell_of(mem, tid, op.ret)
        for tj in self.icfa.out_edges[t_place[-1]]:
            if isinstance(tj.op, ThreadJoinOp) and tj.tgt == e.tgt:
                self._note_rw(tj, self._ret_reads.get(target, frozenset()), (cell,))
                break
        return self._advance(state, tid, e, "join",
                             mem=self._store(state[1], mem, {cell: t_retval}))

    def _do_call(self, state, tid, e, mem):
        threads = state[0]
        place, status, retval = threads[tid]
        p2 = entry_place(self.icfa, place, e.tgt)
        if len(p2) != len(place) + 1:
            raise OracleUnsupported(
                f"recursive call of {self.icfa.func_of(e.tgt)}")
        op = e.op
        vals = [self._eval(mem, tid, a) for a in op.args]
        writes = {("l", tid, par): v for par, v in zip(op.params, vals)}
        self._note_rw(e, self._reads, writes)
        threads = threads[:tid] + ((p2, status, retval),) + threads[tid + 1:]
        mem_f = self._store(state[1], mem, writes) if writes else state[1]
        return ("call", (threads, mem_f, state[2], state[3]))

    def _do_return(self, state, tid, _, mem):
        threads = state[0]
        place, status, retval = threads[tid]
        func = self.icfa.func_of(place[-1])
        fi = self.icfa.functions[func]
        v = 0
        if fi.ret_expr is not None:
            v = self._eval(mem, tid, fi.ret_expr)

        if len(place) == 1 or place[-2] in self.icfa.create_sites:
            # the thread's bottom frame: the thread is done
            self._ret_reads[tid] = frozenset(self._reads)
            th = (place, "done", v)
            threads = threads[:tid] + (th,) + threads[tid + 1:]
            dead = [c for c in mem if c[0] == "l" and c[1] == tid]
            return ("finish", (threads, self._store(state[1], mem, {}, dead),
                               state[2], state[3]))

        e = self._func_exits[place[-1], place[-2]]
        prefix = func + "::"
        dead = [c for c in mem
                if c[0] == "l" and c[1] == tid and c[2].startswith(prefix)]
        th = (next_place(self.icfa, e, place), status, retval)
        threads = threads[:tid] + (th,) + threads[tid + 1:]
        writes = {}
        if e.op.lhs is not None:
            live = dict(mem)
            for c in dead:
                del live[c]
            writes[self._cell_of(live, tid, e.op.lhs)] = v
        self._note_rw(e, self._reads, writes)  # the return value's and lhs's
        return ("return", (threads, self._store(state[1], mem, writes, dead),
                           state[2], state[3]))

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
        if isinstance(e, VarRef):  # the kinds in order of frequency
            return self._read(mem, self._var_cell(tid, e.name))
        if isinstance(e, IntLit):
            return e.value
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
        if isinstance(e, FuncRef):
            return ("fn", e.name)
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


_NO_LOCKS: frozenset = frozenset()

# Intra ops other than guards: (kind and tag, reads memory?, step).
_INTRA_STEPS = {
    SkipOp: ("skip", False, Oracle._do_skip),
    ReturnOp: ("ret-edge", False, Oracle._do_ret_edge),
    AssignOp: ("assign", True, Oracle._do_assign),
    LockOp: ("lock", True, Oracle._do_lock),
    UnlockOp: ("unlock", True, Oracle._do_unlock),
    CreateOp: ("create", True, Oracle._do_create),
    JoinOp: ("join", True, Oracle._do_join),
}


def run_oracle(icfa: ICFA, **kw) -> OracleResult:
    return Oracle(icfa, **kw).run()
