"""AST and static types for the mini pthreads-style C dialect.

Expression and statement nodes are plain dataclasses. Positions (line/col)
and inferred types are excluded from equality, so two nodes compare equal
when their structure is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class BaseType:
    """int, mutex, thread_t or void, named by its keyword."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StructType:
    name: str

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class PointerType:
    pointee: "Type"

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType:
    element: "Type"
    size: int

    def __str__(self) -> str:
        return f"{self.element}[{self.size}]"


@dataclass(frozen=True)
class FuncType:
    params: tuple["Type", ...]
    ret: "Type"

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({args})"


Type = Union[BaseType, StructType, PointerType, ArrayType, FuncType]

INT = BaseType("int")
MUTEX = BaseType("mutex")
THREAD_ID = BaseType("thread_t")
VOID = BaseType("void")
MUTEX_PTR = PointerType(MUTEX)


def is_pointer(t: Type | None) -> bool:
    return isinstance(t, PointerType)


def is_fnptr(t: Type | None) -> bool:
    return isinstance(t, PointerType) and isinstance(t.pointee, FuncType)


def points_to_values(t: Type | None) -> bool:
    """True if a cell of this type holds values the pointer analysis tracks."""
    return is_pointer(t) and not is_fnptr(t)


# ---------------------------------------------------------------------------
# expressions


@dataclass
class IntLit:
    value: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


@dataclass
class VarRef:
    name: str  # fully qualified after resolution (func::name for locals)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


@dataclass
class FuncRef:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)  # decayed PointerType(FuncType)


@dataclass
class Unary:
    op: str  # & * ! -
    operand: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


@dataclass
class Binary:
    op: str  # == != < <= > >= + -
    left: "Expr"
    right: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


@dataclass
class FieldAccess:
    base: "Expr"
    name: str
    arrow: bool  # p->f vs s.f
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


@dataclass
class Index:
    base: "Expr"
    index: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


@dataclass
class Malloc:
    alloc_type: Type
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    typ: Type | None = field(default=None, compare=False)


Expr = Union[IntLit, VarRef, FuncRef, Unary, Binary, FieldAccess, Index, Malloc]


# ---------------------------------------------------------------------------
# statements


@dataclass
class Decl:
    name: str
    typ: Type
    line: int = field(default=0, compare=False)


@dataclass
class Assign:
    lhs: Expr
    rhs: Expr
    line: int = field(default=0, compare=False)


@dataclass
class CallStmt:
    callee: Expr  # a FuncRef, or a function pointer to dispatch over
    args: list[Expr]
    lhs: Expr | None  # receiving lvalue, if any
    line: int = field(default=0, compare=False)


@dataclass
class If:
    cond: Expr
    then: "Block"
    els: "Block"
    line: int = field(default=0, compare=False)


@dataclass
class While:
    cond: Expr
    body: "Block"
    line: int = field(default=0, compare=False)


@dataclass
class LockStmt:
    arg: Expr
    line: int = field(default=0, compare=False)


@dataclass
class UnlockStmt:
    arg: Expr
    line: int = field(default=0, compare=False)


@dataclass
class CreateStmt:
    tid: Expr  # out-argument, thread_t*
    fn: Expr
    arg: Expr
    line: int = field(default=0, compare=False)


@dataclass
class JoinStmt:
    tid: Expr
    ret: Expr | None  # receiving lvalue, if any
    line: int = field(default=0, compare=False)


@dataclass
class Return:
    expr: Expr | None
    line: int = field(default=0, compare=False)


@dataclass
class Block:
    stmts: list["Stmt"]
    line: int = field(default=0, compare=False)


Stmt = Union[
    Decl, Assign, CallStmt, If, While, LockStmt, UnlockStmt, CreateStmt, JoinStmt,
    Return, Block,
]


# ---------------------------------------------------------------------------
# program structure


@dataclass
class Function:
    name: str
    ret: Type
    params: list[Decl]
    locals: list[Decl]
    body: Block
    line: int = field(default=0, compare=False)

    @cached_property
    def func_type(self) -> FuncType:
        return FuncType(tuple(p.typ for p in self.params), self.ret)


@dataclass
class Program:
    functions: dict[str, Function]
    globals: dict[str, Decl]
    structs: dict[str, list[Decl]]
    entry: str = "main"
    var_types: dict[str, Type] = field(default_factory=dict, compare=False)
    # functions used as values, computed once by parse()
    address_taken: set[str] = field(default_factory=set, compare=False)
    # per function pointer type, the address-taken functions of that type in
    # name order: what a call or create through such a pointer may start.
    # Filled by preprocess; build_icfa reads it.
    fp_targets: dict[Type, list[Function]] | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# shape of the tree


# The direct children of each compound node type, in source order, found
# by one dict lookup on the exact type instead of an isinstance chain.
_SUB_BLOCKS = {
    If: lambda s: (s.then, s.els),
    While: lambda s: (s.body,),
    Block: lambda s: (s,),  # a nested block holds its statements itself
}
_SUB_EXPRS = {
    Unary: lambda e: (e.operand,),
    Binary: lambda e: (e.left, e.right),
    FieldAccess: lambda e: (e.base,),
    Index: lambda e: (e.base, e.index),
}


def sub_exprs(e: Expr) -> tuple[Expr, ...]:
    """An expression's direct operands, left to right."""
    get = _SUB_EXPRS.get(type(e))
    return () if get is None else get(e)


def stmt_exprs(s: Stmt) -> list[Expr]:
    """The expressions a statement directly contains, in source order."""
    if isinstance(s, Assign):
        return [s.lhs, s.rhs]
    if isinstance(s, CallStmt):
        return [s.callee, *s.args] + ([s.lhs] if s.lhs is not None else [])
    if isinstance(s, (If, While)):
        return [s.cond]
    if isinstance(s, (LockStmt, UnlockStmt)):
        return [s.arg]
    if isinstance(s, CreateStmt):
        return [s.tid, s.fn, s.arg]
    if isinstance(s, JoinStmt):
        return [s.tid] + ([s.ret] if s.ret is not None else [])
    if isinstance(s, Return) and s.expr is not None:
        return [s.expr]
    return []


def walk_stmts(block: Block) -> list[Stmt]:
    """Every statement inside block, nested ones included, in source order
    (a compound statement comes before the statements it contains). The
    pipeline never lists a body like this, since the checker and the
    automaton builder each visit a statement as they reach it; the tests
    use this walk as their reference."""
    out: list[Stmt] = []
    stack = block.stmts[::-1]  # the statements still to visit, the next one last
    sub_blocks_of = _SUB_BLOCKS.get
    while stack:
        s = stack.pop()
        out.append(s)
        get = sub_blocks_of(type(s))
        if get is not None:
            for b in reversed(get(s)):
                stack += reversed(b.stmts)
    return out


def walk_exprs(e: Expr, out: list[Expr] | None = None) -> list[Expr]:
    """e and every expression nested in it, each before its operands."""
    if out is None:
        out = []
    out.append(e)
    for c in sub_exprs(e):
        walk_exprs(c, out)
    return out


def expr_vars(e: Expr) -> set[str]:
    """Variable identifiers referenced by an expression (function ids excluded)."""
    return {n.name for n in walk_exprs(e) if isinstance(n, VarRef)}


def expr_text(e: Expr) -> str:
    """Compact source-like rendering, used for edge labels and reports."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, (VarRef, FuncRef)):
        return e.name.split("::")[-1]
    if isinstance(e, Unary):
        return f"{e.op}{expr_text(e.operand)}"
    if isinstance(e, Binary):
        return f"{expr_text(e.left)} {e.op} {expr_text(e.right)}"
    if isinstance(e, FieldAccess):
        sep = "->" if e.arrow else "."
        return f"{expr_text(e.base)}{sep}{e.name}"
    if isinstance(e, Index):
        return f"{expr_text(e.base)}[{expr_text(e.index)}]"
    if isinstance(e, Malloc):
        return f"malloc({e.alloc_type})"
    return "?"
