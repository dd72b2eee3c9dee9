"""AST preprocessing passes applied before automaton construction.

remove_fp_calls turns every call through a function pointer into an
if/else-if chain over the type-compatible, address-taken candidates, so the
automaton only ever sees direct calls. single_exit rewrites every function
into a form with exactly one return statement at the end of the body.
Both passes are idempotent.
"""

from __future__ import annotations

from .syntax import (
    INT, Assign, Binary, Block, CallStmt, Decl, Expr, FuncRef, Function, If,
    PointerType, Program, Return, ExitJump, Stmt, VarRef, VOID, sub_blocks, walk_stmts,
)


def fp_call_candidates(prog: Program, callee: Expr) -> list[Function]:
    """Address-taken functions type-compatible with a function-pointer expression."""
    return [
        fn for name, fn in sorted(prog.functions.items())
        if name in prog.address_taken and PointerType(fn.func_type) == callee.typ
    ]


def remove_fp_calls(prog: Program) -> Program:
    """Replace calls through function pointers with direct-call dispatch chains."""

    def dispatch(s: CallStmt) -> Stmt:
        cands = fp_call_candidates(prog, s.callee)
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

    for fn in prog.functions.values():
        stmts = walk_stmts(fn.body)  # in source order, before any rewrite
        chains = {id(s): dispatch(s) for s in stmts
                  if type(s) is CallStmt and type(s.callee) is not FuncRef}
        for s in [fn.body, *stmts] if chains else ():
            for b in sub_blocks(s):
                b.stmts = [chains.get(id(c), c) for c in b.stmts]
    return prog


def _is_canonical(fn: Function, fp_calls: bool = True) -> bool:
    """fn ends in its only return, and calls through a function pointer
    only if fp_calls."""
    body = fn.body.stmts
    if not body or not isinstance(body[-1], Return):
        return False
    stmts = walk_stmts(fn.body)
    return sum(isinstance(s, Return) for s in stmts) == 1 and (fp_calls or not any(
        isinstance(s, CallStmt) and not isinstance(s.callee, FuncRef) for s in stmts))


def single_exit(prog: Program) -> Program:
    """Rewrite each function to have exactly one trailing return statement."""
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

        blocks = [fn.body]  # each block is rewritten on its own, in any order
        while blocks:
            block = blocks.pop()
            out: list[Stmt] = []
            for s in block.stmts:
                if isinstance(s, Return):
                    if ret_var is not None and s.expr is not None:
                        out.append(Assign(VarRef(ret_name, s.line), s.expr, s.line))
                        out[-1].lhs.typ = fn.ret
                    out.append(ExitJump(s.line))
                    break  # statements after a return are dead
                blocks.extend(sub_blocks(s))
                out.append(s)
            block.stmts = out
        final = VarRef(ret_name) if ret_var is not None else None
        if final is not None:
            final.typ = fn.ret
        fn.body.stmts.append(Return(final, fn.line))
    return prog


def preprocess(prog: Program) -> Program:
    """remove_fp_calls followed by single_exit."""
    return single_exit(remove_fp_calls(prog))
