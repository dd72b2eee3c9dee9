"""Concrete explicit-state reference executor.

Runs a program over all schedules and visits every reachable state (a DFS
with state memoization, sleep sets and a budget), tracking for every thread
the abstract place the static analysis would assign. Recursion is rejected,
so the place is also the thread's call stack: its last location is where
the thread stands, and the locations before it are the call sites to return
to, down to the create site that started the thread (below it lies the
creator's context); the main thread has none. Collected facts:

* arrivals: (place, locks held) pairs seen on real executions,
* copairs: place pairs simultaneously occupied by two live threads,
* witnesses: cycles in the lock-allocation graph (threads blocked in a ring),
* rw: concrete cells read/written per edge (to validate dependency pruning).

Per-state work is only what the state needs. A step table, built once per
program, says what a thread standing at each location does next: call
through the entry edge, leave the function, take the guard branch that
holds, or run the one intra op; the op's expressions are compiled into
closures once, with the table. A state's memory is one tuple with a slot
per cell, in the manner of SPIN's state vector (Holzmann, "The Model
Checker SPIN", TSE 1997). Each run numbers the globals' cells first and
any other cell when it is first written, so the closures read a cell
through one dict lookup and one index, and a step that writes one cell
splices one value into its state's tuple. A dead or never written cell
reads None, which no stored value is, and trailing Nones are trimmed:
equal memories are equal tuples. The cells a thread holds are looked up
once per lock table and thread, in a memo the oracle keeps for its run.

Sleep sets (Godefroid, "Partial-Order Methods for the Verification of
Concurrent Systems", LNCS 1032, 1996) keep the search from running two
commuting steps in both orders. Every step records a footprint: the cells
it read and the cells it wrote or killed (a return kills every local cell
its frame can hold, from a list built once per function). State kept
outside memory enters as write-only pseudo-cells: the mutex a step locks or
unlocks, the thread table a create grows, the status of a thread that
finishes or is joined, and the counter of a malloc site. Two steps of
different threads are independent when neither writes a cell the other
reads or writes. Then either order reaches the same state, and each step
stays enabled, reads the same values and writes the same cells after the
other: the only state a step reads outside its footprint is its own
thread's entry, which no other step changes.

A thread's step sleeps in a state when the search already ran it from an
ancestor on the current path and every step since is independent of it.
The new state that thread t's step reaches inherits the sleeping steps and
the siblings explored before t that are independent of t's step; sleeping
threads are not stepped. `visited` is a set of states, and each state is
expanded once, with the sleep set of its first visit: a step into a
visited state goes no further. Every reachable state is still visited,
and the facts are the same as without sleep sets, as
test_sleep_sets_keep_every_fact_of_a_plain_search in tests/test_oracle.py
checks against a plain DFS:

* A sleeping step is enabled and not undefined behaviour, since it ran
  from the ancestor. So the threads that block or fault, and hence
  ub_events, terminals and the blocked rings behind witnesses, are the
  same in every state.
* A step asleep in a state ran from an ancestor, and the state it reaches
  lies below the ancestor's earlier sibling, as the same steps in another
  order, also where the path runs round a cycle. So the search visited
  that state before the one the step sleeps in, and skipping the step
  loses no state. New states are therefore found in the same order and
  along the same paths as by the plain DFS, so states, arrivals, copairs,
  the witnesses with their schedules, serials, the state cap and
  truncation stay the same, on every search that the depth bound does
  not cut.
* A step that sleeps ran before with the same reads and writes, so rw is
  the same union; pseudo-cells are footprint entries only and never reach
  rw.

Executions hitting undefined behavior (uninitialized reads, self-lock,
foreign unlock, invalid join, dangling dereference) are pruned at the
offending step: facts from the poisoned step onwards don't count.

Recursive calls are rejected: place abstraction folds them, and this
executor's job is to be exact. A call is recursive exactly when entering the
callee would not lengthen the place.

The search allocates only acyclic tuples, sets and dicts, so the cyclic
garbage collector is paused while it runs and restored afterwards.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .collector import collector_paused
from .errors import SourceError
from .framework import entry_place
from .frontend.icfa import (
    ICFA, INTRA, Edge, FuncEntryOp, FuncExitOp, GuardOp, SkipOp, ThreadEntryOp,
)
from .frontend.syntax import (
    MUTEX, ArrayType, Assign, Binary, CreateStmt, Expr, FieldAccess, FuncRef,
    Index, IntLit, JoinStmt, LockStmt, Malloc, Return, StructType, Unary,
    UnlockStmt, VarRef,
)
from .places import Place
from .pointsto import (
    AllocObj, ArrayCellObj, FieldObj, GlobalObj, LocalObj, ObjectModel,
)

MAX_DEPTH = 20_000  # longest schedule explored; deeper paths set truncated
MAX_CELLS = 1 << 16  # memory cells of all variables together, see _cell_count


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
#   mem:    tuple of values, one per slot (see below)
#   locks:  frozenset of (cell, owner) pairs, one per held mutex
#   allocs: tuple of allocations made so far, one count per malloc site
# Values: int | ("ptr", cell) | ("fn", name) | ("tid", k)
# Cells are ("g", name, *path), ("l", tid, name, *path) or ("h", serial,
# *path). A serial stands for the n-th allocation at one site, numbered in
# the order the search first makes it, so every serial names exactly one
# site on every path. Pseudo-cells, which appear only in footprints, start
# with "mutex", "threads", "status" or "alloc".
#
# Slots. Every Oracle numbers the memory cells it meets: _slots maps a cell
# to its slot, and _slot_cells lists the cells by slot. The globals' cells
# take the first slots, and every other cell takes the next slot when a
# step first writes it. mem[k] is the value of cell _slot_cells[k], or None
# when that cell is dead (its frame returned) or was never written; every
# value is an int or a tuple, and a thread with no return expression
# returns 0, so None marks only those. mem ends at its last live slot: a
# write past the end pads with None, and a kill trims the Nones it leaves
# at the end. So one memory is one tuple whatever slots the run has added
# since, and a state a spin loop comes back to after a call is the state
# it left. A step that writes one cell and kills none builds its
# successor's mem with one splice; a return or finish, which kills a
# frame, and a create or a call that writes several cells take one pass
# over a list.

_EMPTY: frozenset = frozenset()
_THREADS = ("threads",)  # the pseudo-cell of the thread table


class Move(NamedTuple):
    """What a thread standing at one location does next."""
    kind: str        # call, exit, guard, skip, ret-edge, assign, lock,
                     # unlock, create, join, or none (no move: an error)
    arg: object      # the entry edge, the guard edges in order, the intra
                     # edge, None at an exit, or why there is no move
    reads_mem: bool  # does the step evaluate expressions?
    run: Callable    # run(oracle, state, tid, arg, code, reads)
    code: tuple      # the op's expressions, compiled (see _value, _address)


class Oracle:
    def __init__(self, icfa: ICFA, max_states: int = 100_000,
                 collect_copairs: bool = True):
        counts: dict[str, int] = {}
        if sum(_cell_count(t, icfa.prog.structs, counts)
               for t in icfa.prog.var_types.values()) > MAX_CELLS:
            raise OracleUnsupported("too many memory cells for exhaustive search")
        self.icfa = icfa
        self.model = ObjectModel(icfa)
        self.max_states = max_states
        self.collect_copairs = collect_copairs
        self.res = OracleResult()
        self._witness_keys: set = set()
        # the slot table of the memory tuples (see "Slots" above)
        self._slot_cells: list[tuple] = [
            cell for name, decl in icfa.prog.globals.items()
            for cell in _cells(("g", name), decl.typ, icfa.prog.structs)]
        self._slots: dict[tuple, int] = {
            cell: k for k, cell in enumerate(self._slot_cells)}
        self._mem0 = (0,) * len(self._slot_cells)  # every global is 0
        self._moves = [self._move_at(loc) for loc in range(len(icfa.locations))]
        # malloc site -> allocs slot, in edge order
        self._alloc_index: dict[int, int] = {
            site: k for k, site in enumerate(icfa.alloc_types)}
        self._serials: dict[tuple[int, int], int] = {}  # (site, n) -> serial
        self._thread_entries: dict[tuple[int, str], Edge] = {}
        # (exit, site) -> (return edge, its compiled lhs address or None)
        self._func_exits: dict[tuple[int, int], tuple] = {}
        for e in icfa.edges:
            op = e.op
            if isinstance(op, ThreadEntryOp):
                self._thread_entries.setdefault((e.src, icfa.func_of(e.tgt)), e)
            elif isinstance(op, FuncExitOp) and (e.src, e.call_site) \
                    not in self._func_exits:
                lhs = None if op.lhs is None else _address(op.lhs, self._slots)
                self._func_exits[e.src, e.call_site] = (e, lhs)
        # function -> (name, *path) of every local cell its frame can hold;
        # None -> those of every function (a finishing thread's cells)
        self._locals: dict[str | None, list[tuple]] = {None: []}
        for name, typ in icfa.prog.var_types.items():
            if "::" in name:
                cells = list(_cells((name,), typ, icfa.prog.structs))
                self._locals.setdefault(name.split("::")[0], []).extend(cells)
                self._locals[None].extend(cells)
        self._frames: dict[tuple, frozenset] = {}  # (function, tid) -> cells
        self._mutexes: dict[tuple, tuple | None] = {}  # cell -> pseudo-cell
        # (lock table, tid) -> the cells tid holds in it
        self._held: dict[tuple[frozenset, int], frozenset] = {}

    def _move_at(self, loc: int) -> Move:
        """The step table entry of loc: its entry edge first, then its
        function's exit, then its intra edges (every guard branch in order,
        or the one op)."""
        icfa = self.icfa
        slots = self._slots
        out = icfa.out_edges[loc]
        for e in out:
            if isinstance(e.op, FuncEntryOp):
                return Move("call", e, True, Oracle._do_call,
                            tuple(_value(a, slots) for a in e.op.args))
        func = icfa.func_of(loc)
        if loc == icfa.exit_of(func):
            ret = icfa.functions[func].ret_expr
            return Move("exit", None, True, Oracle._do_return,
                        (func, None if ret is None else _value(ret, slots)))
        intra = [e for e in out if e.kind == INTRA]
        if not intra:
            return Move("none", f"no move at location {loc}", False,
                        Oracle._no_move, ())
        op = intra[0].op
        if isinstance(op, GuardOp):
            return Move("guard", tuple(intra), True, Oracle._do_guard,
                        (_value(op.cond, slots),))
        if type(op) not in _INTRA_STEPS:
            return Move("none", f"unhandled op {op}", False, Oracle._no_move, ())
        kind, reads_mem, run, compile_op = _INTRA_STEPS[type(op)]
        return Move(kind, intra[0], reads_mem, run, compile_op(op, slots))

    # ------------------------------------------------------------- driver

    @collector_paused()
    def run(self) -> OracleResult:
        self._search()
        return self.res

    def _search(self) -> None:
        """The sleep-set DFS of the module docstring."""
        s0 = self._initial_state()
        visited = {s0}
        self._record_state(s0)
        path: list[tuple[int, str]] = []
        # one frame per state on the path: its successors still to try, and
        # its sleep set (tid -> footprint), which gains each tried sibling
        stack = [(iter(self._expand(s0, path, 0)), {})]
        while stack:
            succs, sleep = stack[-1]
            move = next(succs, None)
            if move is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            if len(path) >= MAX_DEPTH:
                self.res.truncated = True
                continue
            tid, tag, s2, fp = move
            seen = len(visited)
            visited.add(s2)  # one hash for a new state
            if len(visited) > seen:
                if seen >= self.max_states:
                    visited.remove(s2)
                    self.res.truncated = True
                    break
                asleep = {}
                mask = 0
                for u, f in sleep.items():
                    if _independent(f, fp):
                        asleep[u] = f
                        mask |= 1 << u
                path.append((tid, tag))
                self._record_state(s2, (tid, len(s2[0]) - 1) if tag == "create"
                                   else (tid,))
                stack.append((iter(self._expand(s2, path, mask)), asleep))
            sleep[tid] = fp
        self.res.states = len(visited)

    def _expand(self, state, path, skip: int) -> list:
        """Successors (tid, tag, state, footprint) of every runnable thread
        whose bit is not set in skip, the bitmask of the threads asleep in
        state; a footprint is (reads, writes)."""
        succs = []
        blocked: list[tuple[int, tuple]] = []   # (tid, (lock cell, owner))
        alive = False
        for tid, th in enumerate(state[0]):
            if th[1] != "run":
                continue
            alive = True
            if skip >> tid & 1:
                continue
            _, arg, reads_mem, run, code = self._moves[th[0][-1]]
            reads = set() if reads_mem else _EMPTY
            try:
                tag, s2, writes = run(self, state, tid, arg, code, reads)
            except _UB:
                self.res.ub_events += 1
                continue
            if tag is None:
                if s2 is not None:
                    blocked.append((tid, s2))
            else:
                succs.append((tid, tag, s2, (reads, writes)))
        if len(blocked) > 1:
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
        held_memo = self._held
        if movers is None:
            movers = range(len(threads))
        for t in movers:
            place, status, _ = threads[t]
            if status != "run":
                continue
            held = held_memo.get((locks, t))
            if held is None:
                held = held_memo[locks, t] = frozenset(
                    [c for c, owner in locks if owner == t])
            arrivals.add((place, held))
            if copairs is not None:
                for u, (other, ustatus, _) in enumerate(threads):
                    if u != t and ustatus == "run":
                        copairs.add((place, other) if place <= other
                                    else (other, place))

    def _check_lag(self, state, blocked, path) -> None:
        """Record a witness for each new ring of threads that wait for a
        mutex the next one holds; blocked lists (tid, (cell, owner)). A ring
        has at least two threads: a thread that waited for a mutex it holds
        would relock it, and _do_lock raises that as _UB before the thread
        can block, so _expand calls this only when two threads wait."""
        threads = state[0]
        want = dict(blocked)
        for start in want:
            cycle = []
            t = start
            seen = set()
            while t in want and t not in seen:
                seen.add(t)
                cell, owner = want[t]
                cycle.append((t, threads[t][0], cell))
                t = owner
            if t == start:
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
        entry = self.icfa.entry_of(self.icfa.entry_fn)
        threads = (((entry,), "run", None),)
        return (threads, self._mem0, frozenset(),
                (0,) * len(self._alloc_index))

    def _frame(self, func: str | None, tid: int) -> frozenset:
        """Every local cell of func (of every function when None) that
        thread tid can hold."""
        cells = self._frames.get((func, tid))
        if cells is None:
            cells = self._frames[func, tid] = frozenset(
                ("l", tid) + c for c in self._locals.get(func, ()))
        return cells

    # helpers to rebuild the immutable state ------------------------------

    def _advance(self, state, tid, e, mem=None, locks=None, allocs=None):
        """state with thread tid moved along intra edge e. The mem, locks
        and allocs given replace the state's; the others pass through."""
        threads, mem0, locks0, allocs0 = state
        place, status, retval = threads[tid]
        threads = list(threads)
        threads[tid] = (place[:-1] + (e.tgt,), status, retval)
        return (tuple(threads), mem0 if mem is None else mem,
                locks0 if locks is None else locks,
                allocs0 if allocs is None else allocs)

    def _store(self, mem: tuple, writes: dict,
               kills: frozenset = _EMPTY) -> tuple:
        """The memory tuple mem with the cells in kills dead and every cell
        in writes bound to its new value (a cell in both is written)."""
        slots = self._slots
        if len(writes) == 1 and not kills:  # most steps: splice one value
            (cell, v), = writes.items()
            k = slots.get(cell)
            if k is None:
                k = self._new_slot(cell)
            if k < len(mem):
                return mem[:k] + (v,) + mem[k + 1:]
            return mem + (None,) * (k - len(mem)) + (v,)
        new = list(mem)
        for c in slots.keys() & kills:
            k = slots[c]
            if k < len(new):
                new[k] = None
        for c, v in writes.items():
            k = slots.get(c)
            if k is None:
                k = self._new_slot(c)
            if k >= len(new):
                new += [None] * (k + 1 - len(new))
            new[k] = v
        while new and new[-1] is None:  # equal memories, equal tuples
            new.pop()
        return tuple(new)

    def _new_slot(self, cell: tuple) -> int:
        k = self._slots[cell] = len(self._slot_cells)
        self._slot_cells.append(cell)
        return k

    # individual operations ----------------------------------------------

    # Every step is run(oracle, state, tid, arg, code, reads) with the arg
    # and code of its Move and the set that collects the cells it reads. It
    # returns (tag, successor, writes), with writes the cells and
    # pseudo-cells of its footprint; or (None, (cell, owner), None) when the
    # thread blocks on the mutex cell that thread owner holds, or (None,
    # None, None) while it waits in a join. It raises _UB on poison.

    def _no_move(self, state, tid, why, code, reads):
        raise AssertionError(why)

    def _do_skip(self, state, tid, e, code, reads):
        return "skip", self._advance(state, tid, e), _EMPTY

    def _do_ret_edge(self, state, tid, e, code, reads):
        return "ret-edge", self._advance(state, tid, e), _EMPTY

    def _do_guard(self, state, tid, edges, code, reads):
        v = bool(code[0](state[1], tid, reads))
        for e in edges:
            if v != e.op.negated:
                return "guard", self._advance(state, tid, e), _EMPTY
        raise AssertionError("guard with no matching branch")

    def _do_assign(self, state, tid, e, code, reads):
        rhs, lhs = code
        mem = state[1]
        allocs = None
        if rhs is None:  # malloc
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
            v = rhs(mem, tid, reads)
        cell = lhs(mem, tid, reads)
        self._note_rw(e, reads, (cell,))
        s2 = self._advance(state, tid, e, mem=self._store(mem, {cell: v}),
                           allocs=allocs)
        return "assign", s2, \
            {cell} if allocs is None else {cell, ("alloc", e.src)}

    def _do_lock(self, state, tid, e, code, reads):
        cell, mutex = self._lock_operand(code[0](state[1], tid, reads))
        self._note_rw(e, reads, ())
        locks = state[2]
        for c, owner in locks:
            if c == cell:
                if owner == tid:
                    raise _UB("relock of a held mutex")
                return None, (cell, owner), None
        return "lock", self._advance(state, tid, e, locks=locks | {(cell, tid)}), \
            {mutex}

    def _do_unlock(self, state, tid, e, code, reads):
        cell, mutex = self._lock_operand(code[0](state[1], tid, reads))
        self._note_rw(e, reads, ())
        if (cell, tid) not in state[2]:
            raise _UB("unlock of a mutex not held by this thread")
        return "unlock", self._advance(state, tid, e,
                                       locks=state[2] - {(cell, tid)}), {mutex}

    def _lock_operand(self, v) -> tuple[tuple, tuple]:
        """The mutex cell v points to, and its pseudo-cell."""
        if not (isinstance(v, tuple) and v[0] == "ptr"):
            raise _UB("lock/unlock through a non-pointer value")
        cell = v[1]
        if cell not in self._mutexes:
            is_mutex = self.model.type_of(self.res.abstract_cell(cell)) == MUTEX
            self._mutexes[cell] = ("mutex", cell) if is_mutex else None
        mutex = self._mutexes[cell]
        if mutex is None:
            raise _UB("lock/unlock target is not a mutex")
        return cell, mutex

    def _do_create(self, state, tid, e, code, reads):
        threads, mem = state[0], state[1]
        tid_of, fn_of, arg_of = code
        tv = tid_of(mem, tid, reads)
        if not (isinstance(tv, tuple) and tv[0] == "ptr"):
            raise _UB("thread id out-argument is not a pointer")
        fv = fn_of(mem, tid, reads)
        if not (isinstance(fv, tuple) and fv[0] == "fn"):
            raise _UB("created start routine is not a function")
        fname = fv[1]
        av = arg_of(mem, tid, reads)
        te = self._thread_entries.get((e.src, fname))
        if te is None:
            raise _UB(f"function {fname} cannot be a thread start routine")
        new_tid = len(threads)
        if new_tid > 16:
            raise OracleUnsupported("too many threads for exhaustive search")
        writes = {tv[1]: ("tid", new_tid)}
        self._note_rw(e, reads, (tv[1],))

        place, status, retval = threads[tid]
        tf_place = entry_place(self.icfa, place, te.tgt)
        if len(tf_place) != len(place) + 1:
            raise OracleUnsupported("recursive thread creation")
        pcell = ("l", new_tid, te.op.param)
        writes[pcell] = av
        self._note_rw(te, reads, (pcell,))

        threads = list(threads)
        threads[tid] = (place[:-1] + (e.tgt,), status, retval)
        threads.append((tf_place, "run", None))
        return "create", (tuple(threads), self._store(mem, writes), state[2],
                          state[3]), {tv[1], pcell, _THREADS}

    def _do_join(self, state, tid, e, code, reads):
        threads, mem = state[0], state[1]
        tid_of, ret_of = code
        tv = tid_of(mem, tid, reads)
        if not (isinstance(tv, tuple) and tv[0] == "tid"):
            raise _UB("join on an invalid thread id")
        target = tv[1]
        t_place, t_status, t_retval = threads[target]
        if t_status == "joined":
            raise _UB("thread joined twice")
        if t_status == "run":
            return None, None, None  # wait
        threads = list(threads)
        threads[target] = (t_place, "joined", t_retval)
        state = (tuple(threads),) + state[1:]
        status = ("status", target)
        if ret_of is None:
            self._note_rw(e, reads, ())
            return "join", self._advance(state, tid, e), {status}
        cell = ret_of(mem, tid, reads)
        self._note_rw(e, reads, (cell,))
        return "join", self._advance(state, tid, e, mem=self._store(
            mem, {cell: t_retval})), {status, cell}

    def _do_call(self, state, tid, e, code, reads):
        threads, mem = state[0], state[1]
        place, status, retval = threads[tid]
        p2 = entry_place(self.icfa, place, e.tgt)
        if len(p2) != len(place) + 1:
            raise OracleUnsupported(
                f"recursive call of {self.icfa.func_of(e.tgt)}")
        vals = [arg(mem, tid, reads) for arg in code]
        writes = {("l", tid, par): v for par, v in zip(e.op.params, vals)}
        self._note_rw(e, reads, writes)
        threads = list(threads)
        threads[tid] = (p2, status, retval)
        return "call", (tuple(threads), self._store(mem, writes) if writes
                        else mem, state[2], state[3]), writes.keys()

    def _do_return(self, state, tid, _, code, reads):
        func, ret = code
        threads, mem = state[0], state[1]
        place, status, retval = threads[tid]
        v = 0 if ret is None else ret(mem, tid, reads)

        if len(place) == 1 or place[-2] in self.icfa.create_sites:
            # the thread's bottom frame: the thread is done, and every local
            # cell it holds dies, also one written through a dangling pointer
            threads = list(threads)
            threads[tid] = (place, "done", v)
            frame = self._frame(None, tid)
            return "finish", (tuple(threads), self._store(mem, {}, frame),
                              state[2], state[3]), frame | {("status", tid)}

        e, lhs = self._func_exits[place[-1], place[-2]]
        frame = self._frame(func, tid)
        threads = list(threads)
        threads[tid] = (place[:-2] + (e.tgt,), status, retval)
        writes = {}
        if lhs is not None:
            lhs_reads: set = set()
            cell = lhs(mem, tid, lhs_reads)
            if not lhs_reads.isdisjoint(frame):
                raise _UB("read of a cell of the returning frame")
            reads |= lhs_reads
            writes[cell] = v
        self._note_rw(e, reads, writes)  # the return value's and lhs's
        return "return", (tuple(threads), self._store(mem, writes, frame),
                          state[2], state[3]), frame | writes.keys()


def _independent(f, g) -> bool:
    """Do the steps of two threads with footprints f and g commute?"""
    return f[1].isdisjoint(g[0]) and f[1].isdisjoint(g[1]) \
        and g[1].isdisjoint(f[0])


# -------------------------------------------------------------- compiling

# An expression compiles to value(mem, tid, reads) and an lvalue to
# address(mem, tid, reads): closures that evaluate it in thread tid against
# the memory tuple mem, read through the slot table slots of their oracle,
# add every cell they read to the set reads, and raise _UB on poison.


def _cell_count(typ, structs: dict, counts: dict[str, int]) -> int:
    """The steps _cells takes on typ: its cells, with a mutex or an empty
    struct as one. counts caches each struct's count by name."""
    if isinstance(typ, ArrayType):
        return typ.size * _cell_count(typ.element, structs, counts)
    if not isinstance(typ, StructType):
        return 1
    if typ.name not in counts:
        counts[typ.name] = max(1, sum(_cell_count(f.typ, structs, counts)
                                      for f in structs.get(typ.name, [])))
    return counts[typ.name]


def _cells(cell: tuple, typ, structs: dict):
    """The memory cells of a variable at cell of type typ (mutexes live in
    the lock table)."""
    if typ == MUTEX:
        return
    if isinstance(typ, StructType):
        for f in structs.get(typ.name, []):
            yield from _cells(cell + (f.name,), f.typ, structs)
    elif isinstance(typ, ArrayType):
        for i in range(typ.size):
            yield from _cells(cell + (i,), typ.element, structs)
    else:
        yield cell


def _read(mem: tuple, cell, reads, slots: dict):
    try:
        v = mem[slots[cell]]
    except (KeyError, IndexError):  # no slot yet, or past the trimmed end
        v = None
    if v is None:
        raise _UB(f"read of dead or unmapped cell {cell!r}")
    reads.add(cell)
    return v


def _pointee(v, why: str) -> tuple:
    if not (isinstance(v, tuple) and v[0] == "ptr"):
        raise _UB(why)
    return v[1]


def _constant(v) -> Callable:
    return lambda mem, tid, reads: v


# Binary operators: op -> (integer operands only?, int-valued result).
_BINARY = {
    "==": (False, lambda a, b: int(a == b)),
    "!=": (False, lambda a, b: int(a != b)),
    "+": (True, operator.add),
    "-": (True, operator.sub),
    "<": (True, lambda a, b: int(a < b)),
    "<=": (True, lambda a, b: int(a <= b)),
    ">": (True, lambda a, b: int(a > b)),
    ">=": (True, lambda a, b: int(a >= b)),
}


def _value(e: Expr, slots: dict) -> Callable:
    if isinstance(e, VarRef):  # the kinds in order of frequency
        name = e.name
        if "::" not in name:
            cell = ("g", name)
            return lambda mem, tid, reads: _read(mem, cell, reads, slots)
        return lambda mem, tid, reads: _read(mem, ("l", tid, name), reads,
                                             slots)
    if isinstance(e, IntLit):
        return _constant(e.value)
    if isinstance(e, Unary):
        if e.op == "&":
            addr = _address(e.operand, slots)
            return lambda mem, tid, reads: ("ptr", addr(mem, tid, reads))
        sub = _value(e.operand, slots)
        if e.op == "*":
            return lambda mem, tid, reads: _read(mem, _pointee(
                sub(mem, tid, reads), "dereference of a non-pointer value"),
                reads, slots)
        if e.op == "!":
            return lambda mem, tid, reads: 0 if sub(mem, tid, reads) != 0 else 1
        if e.op == "-":
            def negate(mem, tid, reads):
                v = sub(mem, tid, reads)
                if not isinstance(v, int):
                    raise _UB("negation of a non-integer")
                return -v
            return negate
        raise AssertionError(e.op)
    if isinstance(e, Binary):
        return _binary(e.op, _value(e.left, slots), _value(e.right, slots))
    if isinstance(e, FuncRef):
        return _constant(("fn", e.name))
    if isinstance(e, (FieldAccess, Index)):
        addr = _address(e, slots)
        return lambda mem, tid, reads: _read(mem, addr(mem, tid, reads), reads,
                                             slots)

    def fail(mem, tid, reads):
        raise AssertionError(f"cannot evaluate {e!r}")
    return fail


def _binary(op: str, left: Callable, right: Callable) -> Callable:
    ints, fn = _BINARY[op]

    def binary(mem, tid, reads):
        lv = left(mem, tid, reads)
        rv = right(mem, tid, reads)
        if ints and not (isinstance(lv, int) and isinstance(rv, int)):
            raise _UB(f"arithmetic on non-integers via {op}")
        return fn(lv, rv)
    return binary


def _address(e: Expr, slots: dict) -> Callable:
    if isinstance(e, VarRef):
        name = e.name
        if "::" in name:
            return lambda mem, tid, reads: ("l", tid, name)
        return _constant(("g", name))
    if isinstance(e, Unary) and e.op == "*":
        sub = _value(e.operand, slots)
        return lambda mem, tid, reads: _pointee(
            sub(mem, tid, reads), "dereference of a non-pointer value")
    if isinstance(e, FieldAccess):
        name = (e.name,)
        if e.arrow:
            sub = _value(e.base, slots)
            return lambda mem, tid, reads: _pointee(
                sub(mem, tid, reads), "-> applied to a non-pointer value") + name
        base = _address(e.base, slots)
        return lambda mem, tid, reads: base(mem, tid, reads) + name
    if isinstance(e, Index):
        index, base = _value(e.index, slots), _address(e.base, slots)
        bt = e.base.typ
        size = bt.size if isinstance(bt, ArrayType) else None

        def element(mem, tid, reads):
            iv = index(mem, tid, reads)
            if not isinstance(iv, int):
                raise _UB("array index is not an integer")
            cell = base(mem, tid, reads)
            if size is not None and not (0 <= iv < size):
                raise _UB("array index out of bounds")
            return cell + (iv,)
        return element

    def fail(mem, tid, reads):
        raise _UB(f"expression {e!r} is not an lvalue")
    return fail


# Intra ops other than guards: (kind and tag, reads memory?, step, the
# op's expressions compiled against a slot table, in the order the step
# evaluates them).
_INTRA_STEPS = {
    SkipOp: ("skip", False, Oracle._do_skip, lambda op, slots: ()),
    Return: ("ret-edge", False, Oracle._do_ret_edge, lambda op, slots: ()),
    Assign: ("assign", True, Oracle._do_assign, lambda op, slots: (
        None if isinstance(op.rhs, Malloc) else _value(op.rhs, slots),
        _address(op.lhs, slots))),
    LockStmt: ("lock", True, Oracle._do_lock,
               lambda op, slots: (_value(op.arg, slots),)),
    UnlockStmt: ("unlock", True, Oracle._do_unlock,
                 lambda op, slots: (_value(op.arg, slots),)),
    CreateStmt: ("create", True, Oracle._do_create, lambda op, slots: (
        _value(op.tid, slots), _value(op.fn, slots), _value(op.arg, slots))),
    JoinStmt: ("join", True, Oracle._do_join, lambda op, slots: (
        _value(op.tid, slots),
        None if op.ret is None else _address(op.ret, slots))),
}


def run_oracle(icfa: ICFA, **kw) -> OracleResult:
    return Oracle(icfa, **kw).run()
