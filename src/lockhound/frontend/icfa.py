"""Interprocedural control flow automaton.

The builder compiles each checked function body, in one pass, into a
control flow automaton. An edge for an assignment, lock, unlock, create or
join carries that checked statement itself, and every edge into a
function's exit carries the function's one final Return. When the body ends
in its only return, that is this return. Otherwise each return becomes an
edge f::__ret = e (none in a void function) and a jump to the exit, and the
final Return reads f::__ret, a variable the builder declares in the
program's var_types. A call through a function pointer becomes a dispatch
over the address-taken functions of its type (preprocess fills that table):
per candidate f, a guard [fp == f], a direct call and a skip to f's merge.
A failed guard goes on to the next candidate, and each merge flows into the
one above it, as the else-if chain `if (fp == f1) f1(..); else if ...`
would compile. Statements after a return are dead and not compiled.

The other ops exist only in the automaton: a guard (a branch condition with
the side taken), a skip, and four kinds of inter-function edges that stitch
the per-function automata together:

  func_entry    call site           -> callee entry     (argument binding)
  func_exit     callee exit         -> after call site  (return binding)
  thread_entry  create site         -> candidate entry  (thread argument)
  thread_exit   thread fn exit      -> after each create site that starts it

A join is only its JoinStmt edge, and no edge runs from a thread's exit to
it. None is needed: the checker makes thread functions return int and join
results go to an int, which no analysis tracks; a thread's effects reach
its creator through its thread_exit edge; and a join leaves the joiner's
locks as they were. It orders the joiner after the thread, nothing more.

The builder fixes each edge's step kind, how a place (lockhound.places)
moves along it. Along an intra edge (a statement, guard, skip or return
statement) the place's last location becomes the target; an entry edge
(func_entry, thread_entry) appends the target; a return edge (func_exit,
thread_exit) replaces the exit and the site below it with the target.
Every return edge names the call or create site it belongs to, and the
automaton's step table groups each exit's return edges by that site, so
state exploration skips the infeasible ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .syntax import (
    INT, VOID, Assign, Binary, Block, CallStmt, CreateStmt, Decl, Expr, FuncRef,
    Function, If, JoinStmt, LockStmt, Malloc, PointerType, Program, Return,
    Stmt, Type, UnlockStmt, VarRef, While, expr_text, is_fnptr,
)
from ..errors import MissingMainError
from ..graphs import sccs


# --------------------------------------------------------------------- ops
# The automaton's own ops: a guard, a skip and the inter-function edges.
# Every other edge's op is the checked statement it was compiled from.


@dataclass(frozen=True)
class GuardOp:
    cond: Expr
    negated: bool = False


@dataclass(frozen=True)
class SkipOp:
    pass


@dataclass(frozen=True)
class FuncEntryOp:
    args: tuple[Expr, ...]
    params: tuple[str, ...]


@dataclass(frozen=True)
class FuncExitOp:
    ret_expr: Expr | None
    lhs: Expr | None


@dataclass(frozen=True)
class ThreadEntryOp:
    thr: Expr
    arg: Expr
    param: str


@dataclass(frozen=True)
class ThreadExitOp:
    pass


Op = (
    Assign | LockStmt | UnlockStmt | CreateStmt | JoinStmt | Return
    | GuardOp | SkipOp
    | FuncEntryOp | FuncExitOp | ThreadEntryOp | ThreadExitOp
)

# The straight-line statements, each compiled to one edge that carries it.
STMT_OPS = (Assign, LockStmt, UnlockStmt, CreateStmt, JoinStmt)
# The statements whose operands name locks or thread ids.
SEED_OPS = (LockStmt, UnlockStmt, CreateStmt, JoinStmt)

INTRA, ENTRY, RETURN = 0, 1, 2  # the kinds of step a place takes along an edge


def op_text(op: Op) -> str:
    if isinstance(op, Assign):
        return f"{expr_text(op.lhs)} = {expr_text(op.rhs)}"
    if isinstance(op, GuardOp):
        return ("!" if op.negated else "") + f"[{expr_text(op.cond)}]"
    if isinstance(op, LockStmt):
        return f"lock({expr_text(op.arg)})"
    if isinstance(op, UnlockStmt):
        return f"unlock({expr_text(op.arg)})"
    if isinstance(op, CreateStmt):
        return f"create({expr_text(op.tid)}, {expr_text(op.fn)}, {expr_text(op.arg)})"
    if isinstance(op, JoinStmt):
        pre = f"{expr_text(op.ret)} = " if op.ret is not None else ""
        return f"{pre}join({expr_text(op.tid)})"
    if isinstance(op, Return):
        return "return" + (f" {expr_text(op.expr)}" if op.expr is not None else "")
    if isinstance(op, SkipOp):
        return "skip"
    if isinstance(op, FuncEntryOp):
        return "func_entry(" + ", ".join(expr_text(a) for a in op.args) + ")"
    if isinstance(op, FuncExitOp):
        lhs = expr_text(op.lhs) if op.lhs is not None else "_"
        ret = expr_text(op.ret_expr) if op.ret_expr is not None else "_"
        return f"func_exit({ret}, {lhs})"
    if isinstance(op, ThreadEntryOp):
        return f"thread_entry({expr_text(op.thr)}, {expr_text(op.arg)})"
    if isinstance(op, ThreadExitOp):
        return "thread_exit"
    return "?"


# --------------------------------------------------------------- structure


@dataclass
class Location:
    id: int
    func: str
    line: int = 0


@dataclass(eq=False)
class Edge:
    idx: int
    src: int
    tgt: int
    op: Op  # the checked statement, or an automaton-only op
    line: int = 0
    call_site: int | None = None  # a return edge's call or create site
    kind: int = INTRA  # the step kind of the module docstring
    plain: bool = True  # the function-pointer transfer is trivial (fp_transfer)

    def __hash__(self) -> int:
        return self.idx

    def __repr__(self) -> str:
        return f"<e{self.idx} {self.src}->{self.tgt} {op_text(self.op)}>"


@dataclass
class FuncInfo:
    name: str
    entry: int
    exit: int
    params: tuple[str, ...]
    ret_expr: Expr | None


class ICFA:
    def __init__(self, prog: Program):
        self.prog = prog
        self.locations: list[Location] = []
        self.edges: list[Edge] = []
        self.out_edges: dict[int, list[Edge]] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.create_sites: set[int] = set()  # creates with a candidate thread
        # malloc site (its edge's source) -> allocated type, in edge order
        self.alloc_types: dict[int, Type] = {}
        self.warnings: list[str] = []
        self.entry_fn = prog.entry
        # The step table, filled by build_icfa: a step is (edge, kind,
        # plain). steps_at[loc] is (edges, steps) of loc's out-edges, the
        # edges as one shared tuple; at a function exit, a dict of that pair
        # per call site p[-2], for the return edges of that site (key None:
        # any other site, with none). steps_in[f] is f's intra steps and,
        # per call site likewise, its entry and return steps, in edge order.
        self.steps_at: list = []
        self.steps_in: dict[str, tuple[list, dict]] = {}

    # construction -----------------------------------------------------

    def new_loc(self, func: str, line: int = 0) -> int:
        loc = Location(len(self.locations), func, line)
        self.locations.append(loc)
        self.out_edges[loc.id] = []
        return loc.id

    def add_edge(self, src: int, tgt: int, op: Op, line: int = 0,
                 call_site: int | None = None, kind: int = INTRA,
                 plain: bool = True) -> Edge:
        e = Edge(len(self.edges), src, tgt, op, line, call_site, kind, plain)
        self.edges.append(e)
        self.out_edges[src].append(e)
        if self.locations[src].line == 0:
            self.locations[src].line = line
        return e

    # queries ------------------------------------------------------------

    def func_of(self, loc: int) -> str:
        return self.locations[loc].func

    def entry_of(self, fname: str) -> int:
        return self.functions[fname].entry

    def exit_of(self, fname: str) -> int:
        return self.functions[fname].exit

    def line_of(self, loc: int) -> int:
        return self.locations[loc].line

    def lock_edges(self) -> list[Edge]:
        return [e for e in self.edges if isinstance(e.op, LockStmt)]

    def seed_edges(self) -> list[Edge]:
        """Edges whose statements name locks or thread ids."""
        return [e for e in self.edges if isinstance(e.op, SEED_OPS)]

    def assign_edges(self) -> list[Edge]:
        return [e for e in self.edges if isinstance(e.op, Assign)]

    def create_op_at(self, loc: int) -> CreateStmt:
        for e in self.out_edges[loc]:
            if isinstance(e.op, CreateStmt):
                return e.op
        raise KeyError(f"location {loc} is not a create site")

    @cached_property
    def callees(self) -> dict[str, set[str]]:
        """The call/create graph: per function, the functions that its call
        and thread entry edges enter."""
        succ: dict[str, set[str]] = {f: set() for f in self.functions}
        for e in self.edges:
            if e.kind == ENTRY:
                succ[self.func_of(e.src)].add(self.func_of(e.tgt))
        return succ

    def dead_functions(self) -> list[str]:
        """Functions never reached from the entry via call or create edges."""
        seen = {self.entry_fn}
        work = [self.entry_fn]
        while work:
            for g in self.callees[work.pop()] - seen:
                seen.add(g)
                work.append(g)
        return sorted(set(self.functions) - seen)

    @cached_property
    def recursive_functions(self) -> frozenset[str]:
        """Functions on a cycle of the call/create graph: those whose
        strongly connected component has two functions or a self edge."""
        succ = self.callees
        return frozenset(f for c in sccs(succ) for f in c
                         if len(c) > 1 or f in succ[f])

    def place_length_bound(self) -> int:
        return len(self.functions) + len(self.create_sites) + 1

    # rendering ----------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph icfa {", "  node [shape=circle, fontsize=10];"]
        for i, fi in enumerate(self.functions.values()):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{fi.name}";')
            for loc in self.locations:
                if loc.func == fi.name:
                    lines.append(f'    n{loc.id} [label="{loc.id}"];')
            lines.append("  }")
        for e in self.edges:
            style = ', style=dashed, color=gray40' if e.kind != INTRA else ""
            label = op_text(e.op).replace('"', "'")
            lines.append(f'  n{e.src} -> n{e.tgt} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- builder


def preprocess(prog: Program) -> Program:
    """Fill prog.fp_targets, the candidate table build_icfa reads: per
    function pointer type, the address-taken functions of that type in name
    order."""
    prog.fp_targets = {}
    for name in sorted(prog.address_taken):
        fn = prog.functions[name]
        prog.fp_targets.setdefault(PointerType(fn.func_type), []).append(fn)
    return prog


class _FunctionCompiler:
    def __init__(self, icfa: ICFA, fn: Function):
        self.icfa = icfa
        self.fn = fn
        self.pending_calls: list[tuple[int, int, str, CallStmt]] = []
        self.pending_creates: list[tuple[int, int, CreateStmt]] = []
        self.exit_sources: list[int] = []  # locations a return jumps out of
        self.final: Return | None = None  # the body's only, trailing return

    def compile(self) -> FuncInfo:
        icfa, fn = self.icfa, self.fn
        entry = icfa.new_loc(fn.name, fn.line)
        cur = self.compile_stmts(fn.body.stmts, entry)
        final = self.final
        if final is None:  # every return went through f::__ret
            final = Return(self.ret_var(0) if fn.ret != VOID else None, fn.line)
        exit_loc = icfa.new_loc(fn.name, final.line)
        for src in ([cur] if cur is not None else []) + self.exit_sources:
            icfa.add_edge(src, exit_loc, final, final.line)
        return FuncInfo(fn.name, entry, exit_loc, tuple(p.name for p in fn.params),
                        final.expr)

    def ret_var(self, line: int) -> VarRef:
        """A reference to f::__ret, declared in var_types on first use."""
        name = f"{self.fn.name}::__ret"
        self.icfa.prog.var_types.setdefault(name, self.fn.ret)
        v = VarRef(name, line)
        v.typ = self.fn.ret
        return v

    def compile_stmts(self, stmts: list[Stmt], cur: int | None) -> int | None:
        for s in stmts:
            if cur is None:
                break  # dead code after a jump to the exit
            cur = self.compile_stmt(s, cur)
        return cur

    def compile_stmt(self, s: Stmt, cur: int) -> int | None:
        icfa, fname = self.icfa, self.fn.name
        if isinstance(s, Decl):
            return cur
        if isinstance(s, Block):
            return self.compile_stmts(s.stmts, cur)
        if isinstance(s, STMT_OPS):
            nxt = icfa.new_loc(fname, s.line)
            writes_fp = isinstance(s, Assign) and isinstance(s.lhs, VarRef) \
                and is_fnptr(s.lhs.typ)
            icfa.add_edge(cur, nxt, s, s.line, plain=not writes_fp)
            if isinstance(s, Assign) and isinstance(s.rhs, Malloc):
                icfa.alloc_types[cur] = s.rhs.alloc_type
            if isinstance(s, CreateStmt):
                self.pending_creates.append((cur, nxt, s))
            return nxt
        if isinstance(s, CallStmt):
            if type(s.callee) is not FuncRef:
                return self.compile_dispatch(s, cur)
            nxt = icfa.new_loc(fname, s.line)
            if icfa.locations[cur].line == 0:
                icfa.locations[cur].line = s.line
            self.pending_calls.append((cur, nxt, s.callee.name, s))
            return nxt
        if isinstance(s, If):
            return self.compile_if(s, cur)
        if isinstance(s, While):
            return self.compile_while(s, cur)
        if isinstance(s, Return):
            if s is self.fn.body.stmts[-1] and not self.exit_sources:
                self.final = s
                return cur
            # an early return, or the last of several: set f::__ret and jump
            if s.expr is not None:
                cur = self.compile_stmt(Assign(self.ret_var(s.line), s.expr, s.line), cur)
            self.exit_sources.append(cur)
            return None
        raise AssertionError(f"unexpected statement in automaton builder: {s!r}")

    def compile_dispatch(self, s: CallStmt, cur: int) -> int:
        """A call through a pointer, over its candidates f in turn: a guard
        [fp == f], a direct call and a skip to f's merge. A failed guard goes
        on to the next candidate, the last one's to the last merge, and each
        merge flows into the one above it."""
        icfa, fname, line = self.icfa, self.fn.name, s.line
        cands = icfa.prog.fp_targets.get(s.callee.typ, [])
        if not cands:
            icfa.warnings.append(
                f"line {line}: call through function pointer has no candidates, dropped")
            return cur
        merges: list[int] = []
        for fn in cands:
            ref = FuncRef(fn.name, line)
            ref.typ = s.callee.typ
            cond = Binary("==", s.callee, ref, line)
            cond.typ = INT
            site = icfa.new_loc(fname, line)
            icfa.add_edge(cur, site, GuardOp(cond), line)
            nxt = icfa.new_loc(fname, line)
            self.pending_calls.append((site, nxt, fn.name, s))
            merges.append(icfa.new_loc(fname, line))
            icfa.add_edge(nxt, merges[-1], SkipOp(), line)
            other = merges[-1] if fn is cands[-1] else icfa.new_loc(fname, line)
            icfa.add_edge(cur, other, GuardOp(cond, True), line)
            cur = other
        for k in range(len(merges) - 1, 0, -1):
            icfa.add_edge(merges[k], merges[k - 1], SkipOp(), line)
        return merges[0]

    def compile_if(self, s: If, cur: int) -> int | None:
        icfa, fname = self.icfa, self.fn.name
        merge = None
        for branch, negated in ((s.then, False), (s.els, True)):
            guard = GuardOp(s.cond, negated)
            if branch.stmts:
                b_entry = icfa.new_loc(fname, branch.line or s.line)
                icfa.add_edge(cur, b_entry, guard, s.line)
                end, op = self.compile_stmts(branch.stmts, b_entry), SkipOp()
            else:
                end, op = cur, guard
            if end is not None:
                if merge is None:
                    merge = icfa.new_loc(fname, s.line)
                icfa.add_edge(end, merge, op, s.line)
        return merge

    def compile_while(self, s: While, cur: int) -> int:
        icfa, fname = self.icfa, self.fn.name
        head = cur
        after = icfa.new_loc(fname, s.line)
        body_entry = icfa.new_loc(fname, s.body.line or s.line)
        icfa.add_edge(head, body_entry, GuardOp(s.cond, False), s.line)
        icfa.add_edge(head, after, GuardOp(s.cond, True), s.line)
        b_end = self.compile_stmts(s.body.stmts, body_entry)
        if b_end is not None:
            icfa.add_edge(b_end, head, SkipOp(), s.line)
        return after


def build_icfa(prog: Program) -> ICFA:
    """Construct the interprocedural automaton from a checked program whose
    candidate table preprocess has filled."""
    if prog.entry not in prog.functions:
        raise MissingMainError(f"no {prog.entry}() function")
    if prog.fp_targets is None:
        raise ValueError("program must go through preprocess first")

    icfa = ICFA(prog)

    compilers = []
    for fn in prog.functions.values():
        c = _FunctionCompiler(icfa, fn)
        icfa.functions[fn.name] = c.compile()
        compilers.append(c)

    # direct call edges; a call is plain unless it binds a function pointer
    for c in compilers:
        for site, nxt, callee, stmt in c.pending_calls:
            fi = icfa.functions[callee]
            fp = any(is_fnptr(prog.var_types.get(par)) for par in fi.params)
            icfa.add_edge(site, fi.entry,
                          FuncEntryOp(tuple(stmt.args), fi.params), stmt.line,
                          kind=ENTRY, plain=not fp)
            icfa.add_edge(fi.exit, nxt, FuncExitOp(fi.ret_expr, stmt.lhs),
                          stmt.line, call_site=site, kind=RETURN)

    # thread entry edges, one per type-compatible candidate
    started: set[tuple[int, str]] = set()  # (create site, thread function)
    for c in compilers:
        for site, nxt, stmt in c.pending_creates:
            if isinstance(stmt.fn, FuncRef):
                cands = [stmt.fn.name]
            else:
                cands = [fn.name for fn in prog.fp_targets.get(stmt.fn.typ, [])]
            if not cands:
                icfa.warnings.append(
                    f"line {stmt.line}: create() has no thread candidates")
            for name in cands:
                fi = icfa.functions[name]
                icfa.add_edge(site, fi.entry,
                              ThreadEntryOp(stmt.fn, stmt.arg, fi.params[0]),
                              stmt.line, kind=ENTRY, plain=False)
                started.add((site, name))
    icfa.create_sites = {site for site, _ in started}

    # a thread function's exit resumes after each create that starts it
    for name in sorted({name for _, name in started}):
        fi = icfa.functions[name]
        for c in compilers:
            for site, nxt, _ in c.pending_creates:
                if (site, name) in started:
                    icfa.add_edge(fi.exit, nxt, ThreadExitOp(), icfa.line_of(site),
                                  call_site=site, kind=RETURN)

    for name in icfa.dead_functions():
        icfa.warnings.append(f"function {name} is never called or started")
    _fill_step_table(icfa)
    return icfa


def _by_site(steps: list) -> dict:
    """Per call site, the steps whose edge returns to that site or to none,
    in order; key None: any other site."""
    out: dict = {None: []}
    for s in steps:
        site = s[0].call_site
        if site is None:
            for mine in out.values():
                mine.append(s)
        else:
            out.setdefault(site, out[None][:]).append(s)
    return out


def _fill_step_table(icfa: ICFA) -> None:
    """The step table of ICFA, from the finished edges."""
    func = [loc.func for loc in icfa.locations]
    at: list[list] = [[] for _ in func]
    own = {f: ([], []) for f in icfa.functions}  # intra, inter-function
    for e in icfa.edges:
        s = (e, e.kind, e.plain)
        at[e.src].append(s)
        own[func[e.src]][e.kind != INTRA].append(s)
    icfa.steps_at = [(tuple(out), steps)
                     for out, steps in zip(icfa.out_edges.values(), at)]
    for f, fi in icfa.functions.items():
        icfa.steps_at[fi.exit] = {
            site: (tuple([s[0] for s in mine]), mine)
            for site, mine in _by_site(icfa.steps_at[fi.exit][1]).items()}
        icfa.steps_in[f] = (own[f][0], _by_site(own[f][1]))
