"""Recursive-descent parser and type checker.

parse() returns a typed Program with fully-qualified identifiers: locals and
parameters of function f are renamed to "f::name", globals keep their name.
Calls and malloc() appear only at statement level, never nested inside
expressions; guards are call-free by construction.
"""

from __future__ import annotations

from .lexer import Token, tokenize
from .transform import address_taken_functions
from .syntax import (
    INT, MUTEX, THREAD_ID, VOID, MUTEX_PTR,
    ArrayType, Assign, Binary, Block, CallStmt, CreateStmt, Decl, Expr, FieldAccess,
    FuncRef, FuncType, Function, If, Index, IntLit, JoinStmt, LockStmt, Malloc,
    PointerType, Program, Return, StructType, Stmt, Type, Unary, UnlockStmt, VarRef,
    While, is_fnptr, is_pointer, walk_stmts,
)
from ..errors import ParseError, TypeCheckError

BASE_TYPES = {"int": INT, "mutex": MUTEX, "thread_t": THREAD_ID, "void": VOID}


def _int_value(t: Token) -> int:
    try:
        return int(t.text)
    except ValueError:  # past Python's limit on converting digit strings
        raise ParseError(f"integer {t.text[:8]}... has too many digits ({len(t.text)})",
                         t.line, t.col) from None


# binary operators by precedence level, loosest first; all associate left
BINARY = {"==": 0, "!=": 0, "<": 1, "<=": 1, ">": 1, ">=": 1, "+": 2, "-": 2}

# Bound on nesting, so that the parser and the passes that recurse over the
# tree stay within Python's stack. Every statement counts one level, and so
# does every parenthesis and every unary, binary and postfix operator inside
# it; the count restarts after each statement, so it bounds the tree depth.
MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str):
        toks = tokenize(source)
        self.toks = toks + [toks[-1]] * 2  # peek(2) never runs off the end
        self.pos = 0
        self.depth = 0

    # ------------------------------------------------------------- helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return t

    def nest(self, t: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)

    def at_type(self) -> bool:
        t = self.peek()
        if t.kind == "kw" and t.text in BASE_TYPES:
            return True
        return t.kind == "kw" and t.text == "struct" and self.peek(1).kind == "ident"

    # --------------------------------------------------------------- types

    def parse_base_type(self) -> Type:
        t = self.next()
        if t.kind == "kw" and t.text in BASE_TYPES:
            return BASE_TYPES[t.text]
        if t.kind == "kw" and t.text == "struct":
            name = self.expect("ident")
            return StructType(name.text)
        raise ParseError(f"expected type, found {t.text!r}", t.line, t.col)

    def parse_type_suffix(self, base: Type) -> Type:
        while self.at("*"):
            self.next()
            base = PointerType(base)
        return base

    def parse_declarator(self, base: Type, allow_array: bool) -> tuple[str, Type, Token]:
        """Parse '*'* name, 'name[N]' or the function-pointer form '(*name)(T, ...)'."""
        base = self.parse_type_suffix(base)
        if self.at("("):
            self.next()
            self.expect("*")
            name = self.expect("ident")
            self.expect(")")
            self.expect("(")
            params: list[Type] = []
            if not self.at(")"):
                while True:
                    pt = self.parse_type_suffix(self.parse_base_type())
                    params.append(pt)
                    if not self.at(","):
                        break
                    self.next()
            self.expect(")")
            return name.text, PointerType(FuncType(tuple(params), base)), name
        name = self.expect("ident")
        typ = base
        if self.at("["):
            if not allow_array:
                raise ParseError("array not allowed here", name.line, name.col)
            self.next()
            size = self.expect("int")
            self.expect("]")
            typ = ArrayType(base, _int_value(size))
        return name.text, typ, name

    # ------------------------------------------------------------ toplevel

    def parse_program(self) -> tuple[dict, dict, dict]:
        functions: dict[str, Function] = {}
        globals_: dict[str, Decl] = {}
        structs: dict[str, list[Decl]] = {}
        while not self.at("eof"):
            if self.at("kw", "struct") and self.peek(2).kind == "{":
                self._parse_struct(structs)
                continue
            base = self.parse_base_type()
            name, typ, tok = self.parse_declarator(base, allow_array=True)
            if self.at("("):  # function definition
                if typ not in (INT, VOID) and not is_pointer(typ):
                    raise TypeCheckError(f"bad return type {typ}", tok.line, tok.col)
                fn = self._parse_function(name, typ, tok)
                if name in functions:
                    raise ParseError(f"duplicate function {name!r}", tok.line, tok.col)
                functions[name] = fn
            else:
                self.expect(";")
                if name in globals_:
                    raise ParseError(f"duplicate global {name!r}", tok.line, tok.col)
                globals_[name] = Decl(name, typ, tok.line)
        return functions, globals_, structs

    def _parse_struct(self, structs: dict) -> str:
        self.expect("kw", "struct")
        name = self.expect("ident")
        if name.text in structs:
            raise ParseError(f"duplicate struct {name.text!r}", name.line, name.col)
        self.expect("{")
        fields: list[Decl] = []
        while not self.at("}"):
            base = self.parse_base_type()
            fname, ftyp, ftok = self.parse_declarator(base, allow_array=False)
            self.expect(";")
            if any(f.name == fname for f in fields):
                raise ParseError(f"duplicate field {fname!r}", ftok.line, ftok.col)
            fields.append(Decl(fname, ftyp, ftok.line))
        self.expect("}")
        self.expect(";")
        structs[name.text] = fields
        return name.text

    def _parse_function(self, name: str, ret: Type, tok: Token) -> Function:
        self.expect("(")
        params: list[Decl] = []
        if not self.at(")"):
            while True:
                base = self.parse_base_type()
                pname, ptyp, ptok = self.parse_declarator(base, allow_array=False)
                params.append(Decl(pname, ptyp, ptok.line))
                if not self.at(","):
                    break
                self.next()
        self.expect(")")
        body = self.parse_block()
        return Function(name, ret, params, [], body, tok.line)

    # ---------------------------------------------------------- statements

    def parse_block(self) -> Block:
        tok = self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return Block(stmts, tok.line)

    def parse_stmt(self) -> Stmt:
        depth = self.depth
        self.nest(self.peek())
        s = self._parse_stmt()
        self.depth = depth
        return s

    def _parse_stmt(self) -> Stmt:
        t = self.peek()
        if t.kind == "{":
            return self.parse_block()
        if t.kind == ";":
            self.next()
            return Block([], t.line)
        if self.at_type():
            base = self.parse_base_type()
            name, typ, tok = self.parse_declarator(base, allow_array=True)
            self.expect(";")
            return Decl(name, typ, tok.line)
        if t.kind == "kw":
            if t.text == "if":
                return self._parse_if()
            if t.text == "while":
                self.next()
                self.expect("(")
                cond = self.parse_expr()
                self.expect(")")
                body = self._stmt_as_block(self.parse_stmt())
                return While(cond, body, t.line)
            if t.text == "return":
                self.next()
                expr = None if self.at(";") else self.parse_expr()
                self.expect(";")
                return Return(expr, t.line)
            if t.text in ("lock", "unlock"):
                self.next()
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                self.expect(";")
                cls = LockStmt if t.text == "lock" else UnlockStmt
                return cls(arg, t.line)
            if t.text == "create":
                self.next()
                self.expect("(")
                tid = self.parse_expr()
                self.expect(",")
                fn = self.parse_expr()
                self.expect(",")
                arg = self.parse_expr()
                self.expect(")")
                self.expect(";")
                return CreateStmt(tid, fn, arg, t.line)
            if t.text == "join":
                self.next()
                self.expect("(")
                tid = self.parse_expr()
                self.expect(")")
                self.expect(";")
                return JoinStmt(tid, None, t.line)
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return self._parse_assign_or_call()

    def _parse_if(self) -> If:
        t = self.expect("kw", "if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._stmt_as_block(self.parse_stmt())
        els = Block([], t.line)
        if self.at("kw", "else"):
            self.next()
            els = self._stmt_as_block(self.parse_stmt())
        return If(cond, then, els, t.line)

    @staticmethod
    def _stmt_as_block(s: Stmt) -> Block:
        return s if isinstance(s, Block) else Block([s], s.line)

    def _parse_assign_or_call(self) -> Stmt:
        t = self.peek()
        first = self.parse_unary()
        if self.at("("):  # call statement: callee(args);
            args = self._parse_args()
            self.expect(";")
            return CallStmt(first, args, None, t.line)
        if self.at("="):
            self.next()
            rhs = self._parse_rhs(first, t)
            self.expect(";")
            return rhs
        raise ParseError("expected assignment or call statement", t.line, t.col)

    def _parse_rhs(self, lhs: Expr, t: Token) -> Stmt:
        if self.at("kw", "malloc"):
            self.next()
            self.expect("(")
            typ = self.parse_type_suffix(self.parse_base_type())
            self.expect(")")
            return Assign(lhs, Malloc(typ, t.line, t.col), t.line)
        if self.at("kw", "join"):
            self.next()
            self.expect("(")
            tid = self.parse_expr()
            self.expect(")")
            return JoinStmt(tid, lhs, t.line)
        first = self.parse_unary()
        if self.at("("):  # lhs = callee(args);
            args = self._parse_args()
            return CallStmt(first, args, lhs, t.line)
        expr = self._parse_binary(first)
        return Assign(lhs, expr, t.line)

    def _parse_args(self) -> list[Expr]:
        self.expect("(")
        args: list[Expr] = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if not self.at(","):
                    break
                self.next()
        self.expect(")")
        return args

    # --------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        return self._parse_binary(self.parse_unary())

    def _parse_binary(self, left: Expr, min_level: int = 0) -> Expr:
        # precedence climbing: fold every operator of at least min_level into
        # left; the right operand takes the tighter operators that follow it
        while (level := BINARY.get(self.toks[self.pos].kind, -1)) >= min_level:
            op = self.next()
            self.nest(op)
            right = self._parse_binary(self.parse_unary(), level + 1)
            left = Binary(op.text, left, right, op.line, op.col)
        return left

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind in ("&", "*", "!", "-"):
            self.next()
            self.nest(t)
            return Unary(t.kind, self.parse_unary(), t.line, t.col)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        while True:
            t = self.peek()
            if t.kind in ("->", ".", "["):
                self.nest(t)
            if t.kind == "->":
                self.next()
                name = self.expect("ident")
                e = FieldAccess(e, name.text, True, t.line, t.col)
            elif t.kind == ".":
                self.next()
                name = self.expect("ident")
                e = FieldAccess(e, name.text, False, t.line, t.col)
            elif t.kind == "[":
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                e = Index(e, idx, t.line, t.col)
            else:
                return e

    def parse_primary(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            return IntLit(_int_value(t), t.line, t.col)
        if t.kind == "ident":
            return VarRef(t.text, t.line, t.col)
        if t.kind == "(":
            self.nest(t)
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {t.text or t.kind!r} in expression", t.line, t.col)


class _Checker:
    """Name resolution, local renaming and type checking."""

    def __init__(self, functions: dict[str, Function], globals_: dict[str, Decl],
                 structs: dict[str, list[Decl]]):
        self.functions = functions
        self.globals = globals_
        self.structs = structs
        self.var_types: dict[str, Type] = {}
        self.fn: Function | None = None
        self.scope: dict[str, str] = {}  # bare local name -> qualified

    def run(self) -> Program:
        self._check_structs()
        for g in self.globals.values():
            self._check_decl_type(g)
            self.var_types[g.name] = g.typ
        if "main" in self.functions:
            m = self.functions["main"]
            if m.ret != INT or m.params:
                raise TypeCheckError("main must be declared as int main()", m.line, 0)
        for fn in self.functions.values():
            self._check_function(fn)
        return Program(self.functions, self.globals, self.structs,
                       var_types=self.var_types)

    # -------------------------------------------------------------- decls

    def _check_structs(self) -> None:
        seen: set[str] = set()
        for name, fields in self.structs.items():
            for f in fields:
                t = f.typ
                if isinstance(t, StructType) and t.name not in seen:
                    raise TypeCheckError(
                        f"field {f.name!r} uses undefined struct {t.name!r}", f.line, 0)
                self._check_type_known(t, f.line)
                if t == VOID or isinstance(t, ArrayType):
                    raise TypeCheckError(f"bad field type {t}", f.line, 0)
            seen.add(name)

    def _check_type_known(self, t: Type, line: int) -> None:
        while isinstance(t, (PointerType, ArrayType)):
            t = t.pointee if isinstance(t, PointerType) else t.element
        if isinstance(t, StructType) and t.name not in self.structs:
            raise TypeCheckError(f"unknown struct {t.name!r}", line, 0)
        if isinstance(t, FuncType):
            for p in t.params + (t.ret,):
                self._check_type_known(p, line)

    def _check_decl_type(self, d: Decl) -> None:
        self._check_type_known(d.typ, d.line)
        if d.typ == VOID:
            raise TypeCheckError(f"variable {d.name!r} cannot be void", d.line, 0)
        if isinstance(d.typ, ArrayType) and d.typ.size < 1:
            raise TypeCheckError(f"array {d.name!r} needs a positive size", d.line, 0)

    # ----------------------------------------------------------- functions

    def _check_function(self, fn: Function) -> None:
        self.fn = fn
        self.scope = {}
        self._check_type_known(fn.ret, fn.line)
        for p in fn.params:
            self._bind_local(fn, p)
        fn.locals = [s for s in walk_stmts(fn.body) if isinstance(s, Decl)]
        for d in fn.locals:
            self._bind_local(fn, d)
        self._check_block(fn.body)

    def _bind_local(self, fn: Function, d: Decl) -> None:
        if d.name in self.scope:
            raise TypeCheckError(f"duplicate local {d.name!r} in {fn.name}", d.line, 0)
        self._check_decl_type(d)
        qual = f"{fn.name}::{d.name}"
        self.scope[d.name] = qual
        d.name = qual
        self.var_types[qual] = d.typ

    # ---------------------------------------------------------- statements

    def _check_block(self, block: Block) -> None:
        for i, s in enumerate(block.stmts):
            block.stmts[i] = self._check_stmt(s)

    def _check_stmt(self, s: Stmt) -> Stmt:
        if isinstance(s, Decl):
            return s
        if isinstance(s, Block):
            self._check_block(s)
            return s
        if isinstance(s, Assign):
            s.lhs = self._check_lvalue(s.lhs)
            if isinstance(s.rhs, Malloc):
                self._check_type_known(s.rhs.alloc_type, s.line)
                if s.rhs.alloc_type in (VOID,) or isinstance(s.rhs.alloc_type, (ArrayType, FuncType)):
                    raise TypeCheckError(f"cannot malloc {s.rhs.alloc_type}", s.line, 0)
                s.rhs.typ = PointerType(s.rhs.alloc_type)
                if s.lhs.typ != s.rhs.typ:
                    raise TypeCheckError(
                        f"malloc({s.rhs.alloc_type}) assigned to {s.lhs.typ}", s.line, 0)
                return s
            s.rhs = self._check_expr(s.rhs)
            self._require_assignable(s.lhs.typ, s.rhs.typ, s.line)
            return s
        if isinstance(s, CallStmt):
            return self._check_call(s)
        if isinstance(s, If):
            s.cond = self._check_expr(s.cond)
            self._require_int(s.cond, "if condition")
            self._check_block(s.then)
            self._check_block(s.els)
            return s
        if isinstance(s, While):
            s.cond = self._check_expr(s.cond)
            self._require_int(s.cond, "while condition")
            self._check_block(s.body)
            return s
        if isinstance(s, (LockStmt, UnlockStmt)):
            s.arg = self._check_expr(s.arg)
            if s.arg.typ != MUTEX_PTR:
                op = "lock" if isinstance(s, LockStmt) else "unlock"
                raise TypeCheckError(f"{op}() expects mutex*, got {s.arg.typ}", s.line, 0)
            return s
        if isinstance(s, CreateStmt):
            return self._check_create(s)
        if isinstance(s, JoinStmt):
            s.tid = self._check_expr(s.tid)
            if s.tid.typ != THREAD_ID:
                raise TypeCheckError(f"join() expects thread_t, got {s.tid.typ}", s.line, 0)
            if s.ret is not None:
                s.ret = self._check_lvalue(s.ret)
                if s.ret.typ != INT:
                    raise TypeCheckError("join() result must go to an int", s.line, 0)
            return s
        if isinstance(s, Return):
            if s.expr is None:
                if self.fn.ret != VOID:
                    raise TypeCheckError(f"{self.fn.name} must return {self.fn.ret}", s.line, 0)
            else:
                if self.fn.ret == VOID:
                    raise TypeCheckError(f"{self.fn.name} returns void", s.line, 0)
                s.expr = self._check_expr(s.expr)
                self._require_assignable(self.fn.ret, s.expr.typ, s.line)
            return s
        raise AssertionError(f"unhandled statement {s!r}")

    def _check_call(self, s: CallStmt) -> CallStmt:
        s.callee = self._check_expr(s.callee)
        if isinstance(s.callee, FuncRef):
            ft = self.functions[s.callee.name].func_type
        elif is_fnptr(s.callee.typ):
            ft = s.callee.typ.pointee
        else:
            raise TypeCheckError(f"called object has type {s.callee.typ}", s.line, 0)
        if len(s.args) != len(ft.params):
            raise TypeCheckError(
                f"call expects {len(ft.params)} argument(s), got {len(s.args)}", s.line, 0)
        s.args = [self._check_expr(a) for a in s.args]
        for a, pt in zip(s.args, ft.params):
            if a.typ != pt:
                raise TypeCheckError(f"argument type {a.typ}, expected {pt}", s.line, 0)
        if s.lhs is not None:
            if ft.ret == VOID:
                raise TypeCheckError("void call cannot produce a value", s.line, 0)
            s.lhs = self._check_lvalue(s.lhs)
            self._require_assignable(s.lhs.typ, ft.ret, s.line)
        return s

    def _check_create(self, s: CreateStmt) -> CreateStmt:
        s.tid = self._check_expr(s.tid)
        if s.tid.typ != PointerType(THREAD_ID):
            raise TypeCheckError(f"create() expects thread_t* first, got {s.tid.typ}", s.line, 0)
        s.fn = self._check_expr(s.fn)
        if isinstance(s.fn, FuncRef):
            ft = self.functions[s.fn.name].func_type
        elif is_fnptr(s.fn.typ):
            ft = s.fn.typ.pointee
        else:
            raise TypeCheckError(f"create() expects a function, got {s.fn.typ}", s.line, 0)
        if len(ft.params) != 1 or ft.ret != INT:
            raise TypeCheckError(
                f"thread functions must take one argument and return int, got {ft}", s.line, 0)
        s.arg = self._check_expr(s.arg)
        if s.arg.typ != ft.params[0]:
            raise TypeCheckError(
                f"thread argument type {s.arg.typ}, expected {ft.params[0]}", s.line, 0)
        return s

    # --------------------------------------------------------- expressions

    def _check_expr(self, e: Expr) -> Expr:
        if isinstance(e, IntLit):
            e.typ = INT
            return e
        if isinstance(e, VarRef):
            if e.name in self.scope:
                e.name = self.scope[e.name]
                e.typ = self.var_types[e.name]
                return e
            if e.name in self.globals:
                e.typ = self.var_types[e.name]
                return e
            if e.name in self.functions:
                fr = FuncRef(e.name, e.line, e.col)
                fr.typ = PointerType(self.functions[e.name].func_type)
                return fr
            raise TypeCheckError(f"unknown identifier {e.name!r}", e.line, e.col)
        if isinstance(e, FuncRef):
            e.typ = PointerType(self.functions[e.name].func_type)
            return e
        if isinstance(e, Unary):
            return self._check_unary(e)
        if isinstance(e, Binary):
            return self._check_binary(e)
        if isinstance(e, FieldAccess):
            return self._check_field(e)
        if isinstance(e, Index):
            e.base = self._check_expr(e.base)
            e.index = self._check_expr(e.index)
            self._require_int(e.index, "array index")
            if not isinstance(e.base.typ, ArrayType):
                raise TypeCheckError(f"cannot index {e.base.typ}", e.line, e.col)
            if not self._is_lvalue(e.base):
                raise TypeCheckError("array expression is not an lvalue", e.line, e.col)
            e.typ = e.base.typ.element
            return e
        if isinstance(e, Malloc):
            raise TypeCheckError("malloc() only allowed as a whole assignment", e.line, e.col)
        raise AssertionError(f"unhandled expression {e!r}")

    def _check_unary(self, e: Unary) -> Expr:
        e.operand = self._check_expr(e.operand)
        t = e.operand.typ
        if e.op == "&":
            if isinstance(e.operand, FuncRef):
                return e.operand  # &f and f both denote the function pointer
            if not self._is_lvalue(e.operand):
                raise TypeCheckError("cannot take the address of this", e.line, e.col)
            e.typ = PointerType(t)
            return e
        if e.op == "*":
            if is_fnptr(t):
                return e.operand  # *fp decays back to the function pointer
            if not is_pointer(t):
                raise TypeCheckError(f"cannot dereference {t}", e.line, e.col)
            e.typ = t.pointee
            return e
        self._require_int(e.operand, f"operand of {e.op!r}")
        e.typ = INT
        return e

    def _check_binary(self, e: Binary) -> Expr:
        e.left = self._check_expr(e.left)
        e.right = self._check_expr(e.right)
        lt, rt = e.left.typ, e.right.typ
        if e.op in ("==", "!="):
            ok = (lt == rt == INT) or (is_pointer(lt) and lt == rt)
            # null comparisons and pointer/int comparisons via the int image
            ok = ok or (is_pointer(lt) and rt == INT) or (lt == INT and is_pointer(rt))
            if not ok:
                raise TypeCheckError(f"cannot compare {lt} with {rt}", e.line, e.col)
        else:
            if lt != INT or rt != INT:
                raise TypeCheckError(f"{e.op!r} needs ints, got {lt} and {rt}", e.line, e.col)
        e.typ = INT
        return e

    def _check_field(self, e: FieldAccess) -> Expr:
        e.base = self._check_expr(e.base)
        t = e.base.typ
        if e.arrow:
            if not (is_pointer(t) and isinstance(t.pointee, StructType)):
                raise TypeCheckError(f"'->' needs a struct pointer, got {t}", e.line, e.col)
            st = t.pointee
        else:
            if not isinstance(t, StructType):
                raise TypeCheckError(f"'.' needs a struct, got {t}", e.line, e.col)
            if not self._is_lvalue(e.base):
                raise TypeCheckError("struct expression is not an lvalue", e.line, e.col)
            st = t
        for f in self.structs[st.name]:
            if f.name == e.name:
                e.typ = f.typ
                return e
        raise TypeCheckError(f"{st} has no field {e.name!r}", e.line, e.col)

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _is_lvalue(e: Expr) -> bool:
        return isinstance(e, (VarRef, FieldAccess, Index)) or (
            isinstance(e, Unary) and e.op == "*")

    def _check_lvalue(self, e: Expr) -> Expr:
        e = self._check_expr(e)
        if not self._is_lvalue(e):
            raise TypeCheckError("not an lvalue", e.line, e.col)
        return e

    def _require_int(self, e: Expr, what: str) -> None:
        if e.typ != INT:
            raise TypeCheckError(f"{what} must be int, got {e.typ}", e.line, e.col)

    def _require_assignable(self, lt: Type, rt: Type, line: int) -> None:
        if is_fnptr(lt) or is_fnptr(rt):
            if lt != rt:
                raise TypeCheckError(f"cannot assign {rt} to {lt}", line, 0)
            return
        ok = (
            lt == rt == INT
            or (is_pointer(lt) and lt == rt)
            or (lt == THREAD_ID and rt == THREAD_ID)
            # int <-> data pointer conversions are permitted; the pointer
            # analysis models them as a loss of information
            or (is_pointer(lt) and rt == INT)
            or (lt == INT and is_pointer(rt))
        )
        if not ok:
            raise TypeCheckError(f"cannot assign {rt} to {lt}", line, 0)


def parse(source: str) -> Program:
    """Parse, resolve and type check a program."""
    functions, globals_, structs = _Parser(source).parse_program()
    prog = _Checker(functions, globals_, structs).run()
    prog.address_taken = address_taken_functions(prog)
    return prog
