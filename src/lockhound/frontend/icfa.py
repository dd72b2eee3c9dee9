"""Interprocedural control flow automaton.

Each function body becomes a control flow automaton. An edge for an
assignment, lock, unlock, create or join carries that checked statement
itself, and every edge into a function's exit carries the function's final
Return. The other ops exist only in the automaton: a guard (a branch
condition with the side taken), a skip, and five kinds of inter-function
edges that stitch the per-function automata together:

  func_entry    call site           -> callee entry     (argument binding)
  func_exit     callee exit         -> after call site  (return binding)
  thread_entry  create site         -> candidate entry  (thread argument)
  thread_exit   thread fn exit      -> after each create site that starts it
  thread_join   thread fn exit     -> after every join statement

func_exit and thread_exit edges record the call/create site they belong to
so state exploration can skip the infeasible return edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .syntax import (
    Assign, Block, CallStmt, CreateStmt, Decl, Expr, FuncRef, Function, If,
    JoinStmt, LockStmt, Program, Return, ExitJump, Stmt,
    UnlockStmt, While, expr_text,
)
from .transform import _is_canonical, fp_call_candidates
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


@dataclass(frozen=True)
class ThreadJoinOp:
    ret_expr: Expr | None
    ret_var: Expr | None


Op = (
    Assign | LockStmt | UnlockStmt | CreateStmt | JoinStmt | Return
    | GuardOp | SkipOp
    | FuncEntryOp | FuncExitOp | ThreadEntryOp | ThreadExitOp | ThreadJoinOp
)

# The straight-line statements, each compiled to one edge that carries it.
STMT_OPS = (Assign, LockStmt, UnlockStmt, CreateStmt, JoinStmt)
# The statements whose operands name locks or thread ids.
SEED_OPS = (LockStmt, UnlockStmt, CreateStmt, JoinStmt)
INTER_OPS = (FuncEntryOp, FuncExitOp, ThreadEntryOp, ThreadExitOp, ThreadJoinOp)
EXIT_OPS = (FuncExitOp, ThreadExitOp, ThreadJoinOp)
ENTRY_OPS = (FuncEntryOp, ThreadEntryOp)


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
    if isinstance(op, ThreadJoinOp):
        return "thread_join"
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
    call_site: int | None = None  # func_exit / thread_exit feasibility anchor

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
        self.warnings: list[str] = []
        self.entry_fn = prog.entry

    # construction -----------------------------------------------------

    def new_loc(self, func: str, line: int = 0) -> int:
        loc = Location(len(self.locations), func, line)
        self.locations.append(loc)
        self.out_edges[loc.id] = []
        return loc.id

    def add_edge(self, src: int, tgt: int, op: Op, line: int = 0,
                 call_site: int | None = None) -> Edge:
        e = Edge(len(self.edges), src, tgt, op, line, call_site)
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

    def is_inter(self, e: Edge) -> bool:
        return isinstance(e.op, INTER_OPS)

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
            if isinstance(e.op, ENTRY_OPS):
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
            style = ', style=dashed, color=gray40' if self.is_inter(e) else ""
            label = op_text(e.op).replace('"', "'")
            lines.append(f'  n{e.src} -> n{e.tgt} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- builder


def is_preprocessed(prog: Program) -> bool:
    """Every function ends in its only return and calls only by name."""
    return all(_is_canonical(f, fp_calls=False) for f in prog.functions.values())


class _FunctionCompiler:
    def __init__(self, icfa: ICFA, fn: Function):
        self.icfa = icfa
        self.fn = fn
        self.pending_calls: list[tuple[int, int, str, CallStmt]] = []
        self.pending_creates: list[tuple[int, int, CreateStmt]] = []
        self.exit_sources: list[int] = []

    def compile(self) -> FuncInfo:
        icfa, fn = self.icfa, self.fn
        entry = icfa.new_loc(fn.name, fn.line)
        body = fn.body.stmts
        final = body[-1]
        assert isinstance(final, Return)
        cur = self.compile_stmts(body[:-1], entry)
        exit_loc = icfa.new_loc(fn.name, final.line)
        for src in ([cur] if cur is not None else []) + self.exit_sources:
            icfa.add_edge(src, exit_loc, final, final.line)
        return FuncInfo(fn.name, entry, exit_loc, tuple(p.name for p in fn.params),
                        final.expr)

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
            icfa.add_edge(cur, nxt, s, s.line)
            if isinstance(s, CreateStmt):
                self.pending_creates.append((cur, nxt, s))
            return nxt
        if isinstance(s, CallStmt):
            assert isinstance(s.callee, FuncRef)
            nxt = icfa.new_loc(fname, s.line)
            if icfa.locations[cur].line == 0:
                icfa.locations[cur].line = s.line
            self.pending_calls.append((cur, nxt, s.callee.name, s))
            return nxt
        if isinstance(s, If):
            return self.compile_if(s, cur)
        if isinstance(s, While):
            return self.compile_while(s, cur)
        if isinstance(s, ExitJump):
            self.exit_sources.append(cur)
            return None
        raise AssertionError(f"unexpected statement in automaton builder: {s!r}")

    def compile_if(self, s: If, cur: int) -> int | None:
        icfa, fname = self.icfa, self.fn.name
        merge: int | None = None

        def get_merge() -> int:
            nonlocal merge
            if merge is None:
                merge = icfa.new_loc(fname, s.line)
            return merge

        for branch, negated in ((s.then, False), (s.els, True)):
            guard = GuardOp(s.cond, negated)
            if branch.stmts:
                b_entry = icfa.new_loc(fname, branch.line or s.line)
                icfa.add_edge(cur, b_entry, guard, s.line)
                b_end = self.compile_stmts(branch.stmts, b_entry)
                if b_end is not None:
                    icfa.add_edge(b_end, get_merge(), SkipOp(), s.line)
            else:
                icfa.add_edge(cur, get_merge(), guard, s.line)
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
    """Construct the interprocedural automaton from a preprocessed program."""
    if prog.entry not in prog.functions:
        raise MissingMainError(f"no {prog.entry}() function")
    if not is_preprocessed(prog):
        raise ValueError("program must go through remove_fp_calls and single_exit first")

    icfa = ICFA(prog)
    icfa.warnings.extend(prog.warnings)

    compilers = []
    for fn in prog.functions.values():
        c = _FunctionCompiler(icfa, fn)
        icfa.functions[fn.name] = c.compile()
        compilers.append(c)

    # direct call edges
    for c in compilers:
        for site, nxt, callee, stmt in c.pending_calls:
            fi = icfa.functions[callee]
            icfa.add_edge(site, fi.entry,
                          FuncEntryOp(tuple(stmt.args), fi.params), stmt.line)
            icfa.add_edge(fi.exit, nxt, FuncExitOp(fi.ret_expr, stmt.lhs),
                          stmt.line, call_site=site)

    # thread entry edges, one per type-compatible candidate
    started: set[tuple[int, str]] = set()  # (create site, thread function)
    for c in compilers:
        for site, nxt, stmt in c.pending_creates:
            if isinstance(stmt.fn, FuncRef):
                cands = [stmt.fn.name]
            else:
                cands = [fn.name for fn in fp_call_candidates(prog, stmt.fn)]
            if not cands:
                icfa.warnings.append(
                    f"line {stmt.line}: create() has no thread candidates")
            for name in cands:
                fi = icfa.functions[name]
                icfa.add_edge(site, fi.entry,
                              ThreadEntryOp(stmt.fn, stmt.arg, fi.params[0]),
                              stmt.line)
                started.add((site, name))
    icfa.create_sites = {site for site, _ in started}

    # a thread function's exit resumes after each create that starts it and
    # feeds every join
    creates = [(site, nxt) for c in compilers for site, nxt, _ in c.pending_creates]
    joins = [e for e in list(icfa.edges) if isinstance(e.op, JoinStmt)]
    for name in sorted({name for _, name in started}):
        fi = icfa.functions[name]
        for site, nxt in creates:
            if (site, name) in started:
                icfa.add_edge(fi.exit, nxt, ThreadExitOp(), icfa.line_of(site),
                              call_site=site)
        for je in joins:
            icfa.add_edge(fi.exit, je.tgt,
                          ThreadJoinOp(fi.ret_expr, je.op.ret), je.line)

    for name in icfa.dead_functions():
        icfa.warnings.append(f"function {name} is never called or started")
    return icfa
