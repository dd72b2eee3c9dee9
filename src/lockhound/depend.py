"""Dependency pruning: which edges can influence lock and thread operands.

Starting from the symbols read by lock/unlock/create/join operations, a
worklist closure over binding edges (assignments, parameter passing, returned
values) finds every symbol that can flow into those operands, and from that
the set of edges worth giving to the pointer analysis. A second closure adds
the call edges needed to reach all functions containing such edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .frontend.icfa import (
    ICFA, Edge, FuncEntryOp, FuncExitOp, Op, ThreadEntryOp, ThreadJoinOp,
    ENTRY_OPS, SEED_OPS,
)
from .frontend.syntax import Assign, Expr, expr_vars, stmt_exprs


def seed_symbols(op: Op) -> set[str]:
    """Variables read by one lock/thread statement."""
    if not isinstance(op, SEED_OPS):
        return set()
    return set().union(*map(expr_vars, stmt_exprs(op)))


def _binding_groups(op: Op) -> list[set[str]]:
    """Symbol groups tied together by one binding edge.

    Any symbol of a group reachable from the seeds pulls in the whole group
    (data may flow either way through pointers, so this stays direction-free).
    """
    def pair(a: Expr | None, b: Expr | None) -> set[str]:
        out: set[str] = set()
        if a is not None:
            out |= expr_vars(a)
        if b is not None:
            out |= expr_vars(b)
        return out

    if isinstance(op, Assign):
        return [pair(op.lhs, op.rhs)]
    if isinstance(op, FuncEntryOp):
        return [expr_vars(a) | {p} for a, p in zip(op.args, op.params)]
    if isinstance(op, ThreadEntryOp):
        return [expr_vars(op.arg) | {op.param}]
    if isinstance(op, FuncExitOp):
        return [pair(op.ret_expr, op.lhs)]
    if isinstance(op, ThreadJoinOp):
        return [pair(op.ret_expr, op.ret_var)]
    return []


@dataclass
class DependResult:
    edges: set[int]              # indices of edges the pointer analysis needs
    functions: set[str]          # functions containing or calling into them
    symbols: set[str]            # symbol closure over the seeds
    stats: dict = field(default_factory=dict)

    def allows(self, e: Edge) -> bool:
        return e.idx in self.edges


def affecting_edges(icfa: ICFA) -> DependResult:
    seeds = icfa.seed_edges()
    significant: set[int] = {e.idx for e in seeds}
    pending: deque[str] = deque()
    for e in seeds:
        pending.extend(seed_symbols(e.op))

    groups: list[set[str]] = []
    edge_groups: dict[int, list[int]] = {}
    by_symbol: dict[str, list[int]] = {}
    for e in icfa.edges:
        gs = _binding_groups(e.op)
        if not gs:
            continue
        idxs = []
        for g in gs:
            gi = len(groups)
            groups.append(g)
            idxs.append(gi)
            for s in g:
                by_symbol.setdefault(s, []).append(gi)
        edge_groups[e.idx] = idxs

    handled: set[str] = set()
    used_groups: set[int] = set()
    while pending:
        s = pending.popleft()
        if s in handled:
            continue
        handled.add(s)
        for gi in by_symbol.get(s, ()):
            if gi in used_groups:
                continue
            used_groups.add(gi)
            for t in groups[gi]:
                if t not in handled:
                    pending.append(t)

    # Binding edges whose symbols intersect the closure are significant.
    for e in icfa.edges:
        if isinstance(e.op, (Assign, FuncExitOp, ThreadJoinOp)):
            if any(groups[gi] & handled for gi in edge_groups.get(e.idx, ())):
                significant.add(e.idx)

    result = DependResult(edges=significant, functions=set(), symbols=handled)
    _close_functions(icfa, result)
    _fill_stats(icfa, result)
    return result


def _close_functions(icfa: ICFA, result: DependResult) -> None:
    """Pull in every entry edge (and transitively its callers) that reaches a
    function holding a significant edge, so the solver can seed its contexts."""
    work = [icfa.func_of(icfa.edges[i].src) for i in result.edges]
    entry_edges_to: dict[str, list[Edge]] = {}
    for e in icfa.edges:
        if isinstance(e.op, ENTRY_OPS):
            entry_edges_to.setdefault(icfa.func_of(e.tgt), []).append(e)
    seen: set[str] = set()
    while work:
        f = work.pop()
        if f in seen:
            continue
        seen.add(f)
        for e in entry_edges_to.get(f, ()):
            result.edges.add(e.idx)
            caller = icfa.func_of(e.src)
            if caller not in seen:
                work.append(caller)
    result.functions = seen


def _fill_stats(icfa: ICFA, result: DependResult) -> None:
    assigns = icfa.assign_edges()
    sig_assigns = [e for e in assigns if e.idx in result.edges]
    result.stats = {
        "edges_total": len(icfa.edges),
        "edges_significant": len(result.edges),
        "assigns_total": len(assigns),
        "assigns_significant": len(sig_assigns),
        "assign_fraction": (len(sig_assigns) / len(assigns)) if assigns else 1.0,
        "functions_total": len(icfa.functions),
        "functions_significant": len(result.functions),
        "function_fraction": (len(result.functions) / len(icfa.functions))
                             if icfa.functions else 1.0,
    }
