"""Flow-insensitive, context-sensitive pointer analysis.

Abstract objects name storage: globals, locals, allocation sites, record
fields and smashed array cells. States map cells (abstract objects) to value
sets; a value set is either a finite frozenset of objects or STAR, meaning
"could be anything". Value sets only ever grow (weak updates).

Star enters through assignments of non-pointer values to pointers (the
integer image of a pointer is not tracked) and through stores via a STAR
pointer, which collapses the whole state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .framework import fi_context
from .frontend.icfa import (
    ICFA, Edge, FuncEntryOp, FuncExitOp, ThreadEntryOp, ThreadJoinOp,
)
from .frontend.syntax import (
    ArrayType, Assign, Expr, FieldAccess, FuncRef, Index, IntLit, Malloc, StructType,
    Type, Unary, VarRef, is_pointer, points_to_values,
)
from .places import Place


class _Star:
    def __repr__(self) -> str:
        return "*"


STAR = _Star()

EMPTY: frozenset = frozenset()

ValueSet = Any  # frozenset[AbstractObject] | STAR


class _Top:
    def __repr__(self) -> str:
        return "TOP"


TOP_STATE = _Top()


@dataclass(frozen=True)
class GlobalObj:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LocalObj:
    name: str

    def __repr__(self) -> str:
        return self.name.split("::")[-1] + "@" + self.name.split("::")[0]


@dataclass(frozen=True)
class AllocObj:
    site: int  # allocation location id

    def __repr__(self) -> str:
        return f"alloc{self.site}"


@dataclass(frozen=True)
class FieldObj:
    base: "AbstractObject"
    field: str

    def __repr__(self) -> str:
        return f"{self.base!r}.{self.field}"


@dataclass(frozen=True)
class ArrayCellObj:
    base: "AbstractObject"

    def __repr__(self) -> str:
        return f"{self.base!r}[*]"


AbstractObject = GlobalObj | LocalObj | AllocObj | FieldObj | ArrayCellObj


def obj_label(obj: Any) -> str:
    if obj is STAR:
        return "*"
    return repr(obj)


def obj_key(obj: Any) -> tuple[str, str]:
    """Sort key for objects: the label, then the kind of the base object.

    Labels alone can collide (a global named alloc6 and the allocation at
    site 6); the base kind tells those apart, so the order is total.
    """
    base = obj
    while isinstance(base, (FieldObj, ArrayCellObj)):
        base = base.base
    return obj_label(obj), type(base).__name__


class ObjectModel:
    """Typed view of the abstract object universe of one program."""

    def __init__(self, icfa: ICFA):
        self.icfa = icfa
        self.var_types = icfa.prog.var_types
        self.globals = set(icfa.prog.globals)
        self.structs = icfa.prog.structs
        self.alloc_types: dict[int, Type] = {}
        for e in icfa.edges:
            if isinstance(e.op, Assign) and isinstance(e.op.rhs, Malloc):
                self.alloc_types[e.src] = e.op.rhs.alloc_type

    def var_obj(self, name: str) -> AbstractObject:
        return GlobalObj(name) if name in self.globals else LocalObj(name)

    def type_of(self, obj: AbstractObject) -> Type | None:
        if isinstance(obj, (GlobalObj, LocalObj)):
            return self.var_types.get(obj.name)
        if isinstance(obj, AllocObj):
            return self.alloc_types.get(obj.site)
        if isinstance(obj, FieldObj):
            base_t = self.type_of(obj.base)
            if isinstance(base_t, StructType):
                for f in self.structs.get(base_t.name, []):
                    if f.name == obj.field:
                        return f.typ
            return None
        if isinstance(obj, ArrayCellObj):
            base_t = self.type_of(obj.base)
            return base_t.element if isinstance(base_t, ArrayType) else None
        return None


# ----------------------------------------------------------------- algebra


def vs_union(a: ValueSet, b: ValueSet) -> ValueSet:
    if a is STAR or b is STAR:
        return STAR
    return a | b


def vs_eq(a: ValueSet, b: ValueSet) -> bool:
    if a is STAR or b is STAR:
        return a is b
    return a == b


# ------------------------------------------------------------- evaluation


def eval_expr(model: ObjectModel, state: dict, e: Expr) -> ValueSet:
    """Objects a pointer-valued expression may denote under one state."""
    if state is TOP_STATE:
        return STAR
    if isinstance(e, (IntLit, FuncRef)):
        return EMPTY
    if isinstance(e, VarRef):
        if not points_to_values(e.typ):
            return EMPTY
        return state.get(model.var_obj(e.name), EMPTY)
    if isinstance(e, Unary) and e.op == "&":
        return lvalue_objects(model, state, e.operand)
    if isinstance(e, Unary) and e.op == "*":
        cells = eval_expr(model, state, e.operand)
        return _read_cells(state, cells)
    if isinstance(e, FieldAccess):
        if e.arrow:
            bases = eval_expr(model, state, e.base)
        else:
            bases = lvalue_objects(model, state, e.base)
        if bases is STAR:
            return STAR
        return _read_cells(state, frozenset(FieldObj(b, e.name) for b in bases))
    if isinstance(e, Index):
        cells = lvalue_objects(model, state, e)
        return _read_cells(state, cells)
    return EMPTY  # arithmetic and comparisons produce no tracked pointers


def _read_cells(state: dict, cells: ValueSet) -> ValueSet:
    if cells is STAR:
        return STAR
    out: ValueSet = EMPTY
    for c in cells:
        out = vs_union(out, state.get(c, EMPTY))
        if out is STAR:
            return STAR
    return out


def lvalue_objects(model: ObjectModel, state: dict, e: Expr) -> ValueSet:
    """Cells an lvalue expression may denote (arrays smashed to one cell)."""
    if state is TOP_STATE:
        return STAR
    if isinstance(e, VarRef):
        return frozenset([model.var_obj(e.name)])
    if isinstance(e, Unary) and e.op == "*":
        return eval_expr(model, state, e.operand)
    if isinstance(e, FieldAccess):
        bases = eval_expr(model, state, e.base) if e.arrow \
            else lvalue_objects(model, state, e.base)
        if bases is STAR:
            return STAR
        return frozenset(FieldObj(b, e.name) for b in bases)
    if isinstance(e, Index):
        bases = lvalue_objects(model, state, e.base)
        if bases is STAR:
            return STAR
        return frozenset(ArrayCellObj(b) for b in bases)
    return EMPTY


# --------------------------------------------------------------- client


class PointsToClient:
    """Framework client; plug into solve_fi."""

    ops = (Assign, FuncEntryOp, ThreadEntryOp, FuncExitOp, ThreadJoinOp)

    def __init__(self, model: ObjectModel):
        self.model = model
        self.visits = 0  # applications of binding edges, for the pruning metric

    def initial(self) -> dict:
        return {}

    def join(self, a, b):
        if a is TOP_STATE or b is TOP_STATE:
            return TOP_STATE
        if not b:
            return a
        out = dict(a)
        for k, v in b.items():
            cur = out.get(k, EMPTY)
            nv = vs_union(cur, v)
            if not vs_eq(cur, nv):
                out[k] = nv
        return out

    def transfer(self, e: Edge, place: Place, state):
        op = e.op
        if isinstance(op, Assign):
            self.visits += 1
            return self._store(state, op.lhs, self._rhs_values(state, op.lhs, op.rhs, e))
        if isinstance(op, FuncEntryOp):
            self.visits += 1
            out = state
            for arg, par in zip(op.args, op.params):
                out = self._bind_param(out, arg, par)
            return out
        if isinstance(op, ThreadEntryOp):
            self.visits += 1
            return self._bind_param(state, op.arg, op.param)
        if isinstance(op, (FuncExitOp, ThreadJoinOp)):
            lhs = op.lhs if isinstance(op, FuncExitOp) else op.ret_var
            if lhs is None or op.ret_expr is None:
                return state
            self.visits += 1
            return self._store(state, lhs, self._rhs_values(state, lhs, op.ret_expr, e))
        return state

    def _rhs_values(self, state, lhs: Expr, rhs: Expr, e: Edge) -> ValueSet:
        if not points_to_values(lhs.typ):
            return EMPTY
        if isinstance(rhs, Malloc):
            return frozenset([AllocObj(e.src)])
        if isinstance(rhs, IntLit):
            return EMPTY  # null: points at nothing lockable
        if is_pointer(rhs.typ):
            return eval_expr(self.model, state, rhs)
        return STAR  # a pointer produced from a non-pointer value

    def _bind_param(self, state, arg: Expr, par: str):
        if state is TOP_STATE:
            return TOP_STATE
        if not points_to_values(self.model.var_types.get(par)):
            return state
        vals = eval_expr(self.model, state, arg) if is_pointer(arg.typ) else (
            EMPTY if isinstance(arg, IntLit) else STAR)
        # strong update: the entry edge initializes a fresh instance of the
        # parameter, so stale bindings from completed calls must not survive;
        # contributions into one shared context still meet in the join
        return self._set(state, self.model.var_obj(par), vals)

    def _store(self, state, lhs: Expr, vals: ValueSet):
        if state is TOP_STATE:
            return TOP_STATE
        if not points_to_values(lhs.typ):
            return state
        targets = lvalue_objects(self.model, state, lhs)
        if targets is STAR:
            return TOP_STATE  # store through an unknown pointer hits anything
        out = state
        for t in targets:
            out = self._weak_update(out, t, vals)
        return out

    @staticmethod
    def _weak_update(state: dict, cell, vals: ValueSet):
        if vals is not STAR and not vals:
            return state
        cur = state.get(cell, EMPTY)
        nv = vs_union(cur, vals)
        if vs_eq(cur, nv):
            return state
        out = dict(state)
        out[cell] = nv
        return out

    @staticmethod
    def _set(state: dict, cell, vals: ValueSet):
        cur = state.get(cell, EMPTY)
        if vs_eq(cur, vals):
            return state
        out = dict(state)
        if vals is not STAR and not vals:
            out.pop(cell, None)  # an empty binding reads as "points nowhere"
        else:
            out[cell] = vals
        return out


# --------------------------------------------------------------- results


class PointsToResult:
    """Query interface over the solved flow-insensitive states."""

    def __init__(self, icfa: ICFA, model: ObjectModel, solve_result,
                 merge_contexts: bool = False):
        self.icfa = icfa
        self.model = model
        self.solve = solve_result
        self.merge_contexts = merge_contexts
        self._merged: dict | None = None

    def _state_at(self, p: Place) -> dict:
        if self.merge_contexts:
            if self._merged is None:
                merged: dict = {}
                for _, (fpm, cs) in self.solve.states.items():
                    if cs is TOP_STATE:
                        self._merged = TOP_STATE
                        return TOP_STATE
                    for k, v in cs.items():
                        merged[k] = vs_union(merged.get(k, EMPTY), v)
                self._merged = merged
            return self._merged
        st = self.solve.at(fi_context(self.icfa, p))
        return st if st is not None else {}

    def value_set(self, p: Place, expr: Expr, at_sync: bool = False) -> ValueSet:
        """vs(p, expr); at lock-like queries an empty answer degrades to STAR."""
        v = eval_expr(self.model, self._state_at(p), expr)
        if at_sync and v is not STAR and not v:
            return STAR
        return v

    def lvalue_set(self, p: Place, expr: Expr) -> ValueSet:
        return lvalue_objects(self.model, self._state_at(p), expr)
