"""AST preprocessing passes applied before automaton construction.

remove_fp_calls turns every call through a function pointer into an
if/else-if chain over the type-compatible, address-taken candidates, so the
automaton only ever sees direct calls. single_exit rewrites every function
into a form with exactly one return statement at the end of the body.
Both passes are idempotent.
"""

from __future__ import annotations

from .syntax import (
    INT, Assign, Binary, Block, CallStmt, CreateStmt, Decl, Expr, FuncRef, Function,
    If, JoinStmt, PointerType, Program, Return, ExitJump, Stmt, VarRef, While,
)


def address_taken_functions(prog: Program) -> set[str]:
    """Functions whose value is used anywhere outside a direct call position."""
    taken: set[str] = set()

    def walk_expr(e: Expr) -> None:
        stack = [e]
        while stack:
            n = stack.pop()
            if isinstance(n, FuncRef):
                taken.add(n.name)
            for attr in ("operand", "left", "right", "base", "index"):
                child = getattr(n, attr, None)
                if child is not None:
                    stack.append(child)

    def walk_stmt(s: Stmt) -> None:
        if isinstance(s, Block):
            for t in s.stmts:
                walk_stmt(t)
        elif isinstance(s, Assign):
            walk_expr(s.lhs)
            walk_expr(s.rhs)
        elif isinstance(s, CallStmt):
            if not isinstance(s.callee, FuncRef):
                walk_expr(s.callee)  # direct callees do not count as taken
            for a in s.args:
                walk_expr(a)
            if s.lhs is not None:
                walk_expr(s.lhs)
        elif isinstance(s, If):
            walk_expr(s.cond)
            walk_stmt(s.then)
            walk_stmt(s.els)
        elif isinstance(s, While):
            walk_expr(s.cond)
            walk_stmt(s.body)
        elif isinstance(s, CreateStmt):
            walk_expr(s.tid)
            walk_expr(s.fn)  # passing a function to create() takes its address
            walk_expr(s.arg)
        elif isinstance(s, JoinStmt):
            walk_expr(s.tid)
            if s.ret is not None:
                walk_expr(s.ret)
        elif isinstance(s, Return) and s.expr is not None:
            walk_expr(s.expr)

    for fn in prog.functions.values():
        walk_stmt(fn.body)
    return taken


def fp_call_candidates(prog: Program, callee: Expr, taken: set[str]) -> list[Function]:
    """Address-taken functions type-compatible with a function-pointer expression."""
    out = [
        fn for name, fn in sorted(prog.functions.items())
        if name in taken and PointerType(fn.func_type) == callee.typ
    ]
    return out


def remove_fp_calls(prog: Program) -> Program:
    """Replace calls through function pointers with direct-call dispatch chains."""
    taken = address_taken_functions(prog)

    def rewrite(block: Block, fname: str) -> None:
        for i, s in enumerate(block.stmts):
            if isinstance(s, Block):
                rewrite(s, fname)
            elif isinstance(s, If):
                rewrite(s.then, fname)
                rewrite(s.els, fname)
            elif isinstance(s, While):
                rewrite(s.body, fname)
            elif isinstance(s, CallStmt) and not isinstance(s.callee, FuncRef):
                block.stmts[i] = dispatch(s, fname)

    def dispatch(s: CallStmt, fname: str) -> Stmt:
        cands = fp_call_candidates(prog, s.callee, taken)
        if not cands:
            prog.warnings.append(
                f"line {s.line}: call through function pointer has no candidates, dropped")
            return Block([], s.line)
        chain: Stmt = Block([], s.line)
        for fn in reversed(cands):
            ref = FuncRef(fn.name, s.line)
            ref.typ = PointerType(fn.func_type)
            cond = Binary("==", s.callee, ref, s.line)
            cond.typ = INT
            call = CallStmt(ref, list(s.args), s.lhs, s.line)
            chain = If(cond, Block([call], s.line),
                       chain if isinstance(chain, Block) else Block([chain], s.line),
                       s.line)
        return chain

    for fname, fn in prog.functions.items():
        rewrite(fn.body, fname)
    return prog


def _count_returns(block: Block) -> int:
    n = 0
    for s in block.stmts:
        if isinstance(s, Return):
            n += 1
        elif isinstance(s, Block):
            n += _count_returns(s)
        elif isinstance(s, If):
            n += _count_returns(s.then) + _count_returns(s.els)
        elif isinstance(s, While):
            n += _count_returns(s.body)
    return n


def _is_canonical(fn: Function) -> bool:
    body = fn.body.stmts
    if not body or not isinstance(body[-1], Return):
        return False
    return _count_returns(fn.body) == 1


def single_exit(prog: Program) -> Program:
    """Rewrite each function to have exactly one trailing return statement."""
    from .syntax import VOID

    for fn in prog.functions.values():
        if _is_canonical(fn):
            continue
        ret_name = f"{fn.name}::__ret"
        ret_var: VarRef | None = None
        if fn.ret != VOID:
            if not any(d.name == ret_name for d in fn.locals):
                decl = Decl(ret_name, fn.ret, fn.line)
                fn.locals.append(decl)
                prog.var_types[ret_name] = fn.ret
            ret_var = VarRef(ret_name)
            ret_var.typ = fn.ret

        def rewrite(block: Block) -> None:
            out: list[Stmt] = []
            for s in block.stmts:
                if isinstance(s, Return):
                    if ret_var is not None and s.expr is not None:
                        out.append(Assign(VarRef(ret_name, s.line), s.expr, s.line))
                        out[-1].lhs.typ = fn.ret
                    out.append(ExitJump(s.line))
                    break  # statements after a return are dead
                if isinstance(s, Block):
                    rewrite(s)
                elif isinstance(s, If):
                    rewrite(s.then)
                    rewrite(s.els)
                elif isinstance(s, While):
                    rewrite(s.body)
                out.append(s)
            block.stmts = out

        rewrite(fn.body)
        final = VarRef(ret_name) if ret_var is not None else None
        if final is not None:
            final.typ = fn.ret
        fn.body.stmts.append(Return(final, fn.line))
    return prog


def preprocess(prog: Program) -> Program:
    """remove_fp_calls followed by single_exit."""
    return single_exit(remove_fp_calls(prog))
