"""Recursive-descent parser and type checker.

parse() returns a typed Program with fully-qualified identifiers: locals and
parameters of function f are renamed to "f::name", globals keep their name.
Calls and malloc() appear only at statement level, never nested inside
expressions; guards are call-free by construction.

The parser reads its (kind, text, line, col) token tuples in place, and
collects each function's declarations for the checker. The checker
dispatches on each node's exact type, and records the address-taken set:
each function it resolves a name to outside a direct callee position.
"""

from __future__ import annotations

from .lexer import tokenize
from .syntax import (
    INT, MUTEX, THREAD_ID, VOID, MUTEX_PTR,
    ArrayType, Assign, Binary, Block, CallStmt, CreateStmt, Decl, Expr, FieldAccess,
    FuncRef, FuncType, Function, If, Index, IntLit, JoinStmt, LockStmt, Malloc,
    PointerType, Program, Return, StructType, Stmt, Type, Unary, UnlockStmt, VarRef,
    While, is_fnptr, is_pointer,
)
from ..errors import ParseError, TypeCheckError

BASE_TYPES = {"int": INT, "mutex": MUTEX, "thread_t": THREAD_ID, "void": VOID}

def _int_value(t: tuple) -> int:
    try:
        return int(t[1])
    except ValueError:  # past Python's limit on converting digit strings
        raise ParseError(f"integer {t[1][:8]}... has too many digits ({len(t[1])})",
                         t[2], t[3]) from None


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
        # Reading two tokens past the end of input stays in range. Every
        # read that takes the end of input raises before the next read.
        self.toks = toks + [toks[-1]] * 2
        self.pos = 0
        self.depth = 0
        self.decls: list[Decl] = []  # the current function's, in source order

    # ------------------------------------------------------------- helpers

    def expect(self, kind: str) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1] or t[0]!r}", t[2], t[3])
        return t

    def comma_list(self, item) -> list:
        """item() for each element of a list up to its ')', which may be empty."""
        out = []
        if self.toks[self.pos][0] != ")":
            out.append(item())
            while self.toks[self.pos][0] == ",":
                self.pos += 1
                out.append(item())
        self.expect(")")
        return out

    def nest(self, t: tuple) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t[2], t[3])

    # --------------------------------------------------------------- types

    def parse_base_type(self) -> Type:
        t = self.toks[self.pos]
        self.pos += 1
        if t[0] == "kw":
            if t[1] in BASE_TYPES:
                return BASE_TYPES[t[1]]
            if t[1] == "struct":
                return StructType(self.expect("ident")[1])
        raise ParseError(f"expected type, found {t[1]!r}", t[2], t[3])

    def parse_type_suffix(self, base: Type) -> Type:
        while self.toks[self.pos][0] == "*":
            self.pos += 1
            base = PointerType(base)
        return base

    def parse_declarator(self, base: Type, allow_array: bool) -> tuple[str, Type, tuple]:
        """Parse '*'* name, 'name[N]' or the function-pointer form '(*name)(T, ...)'."""
        base = self.parse_type_suffix(base)
        toks = self.toks
        if toks[self.pos][0] == "(":
            self.pos += 1
            self.expect("*")
            name = self.expect("ident")
            self.expect(")")
            self.expect("(")
            params = self.comma_list(lambda: self.parse_type_suffix(self.parse_base_type()))
            return name[1], PointerType(FuncType(tuple(params), base)), name
        name = self.expect("ident")
        typ = base
        if toks[self.pos][0] == "[":
            if not allow_array:
                raise ParseError("array not allowed here", name[2], name[3])
            self.pos += 1
            size = self.expect("int")
            self.expect("]")
            typ = ArrayType(base, _int_value(size))
        return name[1], typ, name

    # ------------------------------------------------------------ toplevel

    def parse_program(self) -> tuple[dict, dict, dict]:
        functions: dict[str, Function] = {}
        globals_: dict[str, Decl] = {}
        structs: dict[str, list[Decl]] = {}
        toks = self.toks
        while toks[self.pos][0] != "eof":
            if toks[self.pos][1] == "struct" and toks[self.pos + 2][0] == "{":
                self._parse_struct(structs)
                continue
            base = self.parse_base_type()
            name, typ, tok = self.parse_declarator(base, allow_array=True)
            if toks[self.pos][0] == "(":  # function definition
                if typ not in (INT, VOID) and not is_pointer(typ):
                    raise TypeCheckError(f"bad return type {typ}", tok[2], tok[3])
                fn = self._parse_function(name, typ, tok)
                if name in functions:
                    raise ParseError(f"duplicate function {name!r}", tok[2], tok[3])
                functions[name] = fn
            else:
                self.expect(";")
                if name in globals_:
                    raise ParseError(f"duplicate global {name!r}", tok[2], tok[3])
                globals_[name] = Decl(name, typ, tok[2])
        return functions, globals_, structs

    def _parse_struct(self, structs: dict) -> None:
        self.pos += 1  # the caller saw 'struct'
        name = self.expect("ident")
        if name[1] in structs:
            raise ParseError(f"duplicate struct {name[1]!r}", name[2], name[3])
        self.expect("{")
        fields: list[Decl] = []
        while self.toks[self.pos][0] != "}":
            base = self.parse_base_type()
            fname, ftyp, ftok = self.parse_declarator(base, allow_array=False)
            self.expect(";")
            if any(f.name == fname for f in fields):
                raise ParseError(f"duplicate field {fname!r}", ftok[2], ftok[3])
            fields.append(Decl(fname, ftyp, ftok[2]))
        self.expect("}")
        self.expect(";")
        structs[name[1]] = fields

    def _parse_function(self, name: str, ret: Type, tok: tuple) -> Function:
        self.pos += 1  # the caller saw the '('

        def param() -> Decl:
            pname, ptyp, ptok = self.parse_declarator(self.parse_base_type(), allow_array=False)
            return Decl(pname, ptyp, ptok[2])

        params = self.comma_list(param)
        self.decls = []
        body = self.parse_block()
        return Function(name, ret, params, self.decls, body, tok[2])

    # ---------------------------------------------------------- statements

    def parse_block(self) -> Block:
        toks = self.toks
        t = self.expect("{")
        stmts: list[Stmt] = []
        while toks[self.pos][0] != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
        return Block(stmts, t[2])

    def parse_stmt(self) -> Stmt:
        toks = self.toks
        t = toks[self.pos]
        depth = self.depth
        if depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t[2], t[3])
        self.depth = depth + 1
        kind, text, line = t[0], t[1], t[2]
        if kind != "kw":
            if kind == "{":
                s = self.parse_block()
            elif kind == ";":
                self.pos += 1
                s = Block([], line)
            else:
                s = self._parse_assign_or_call(t)
        elif text in BASE_TYPES or text == "struct" and toks[self.pos + 1][0] == "ident":
            name, typ, tok = self.parse_declarator(self.parse_base_type(), allow_array=True)
            self.expect(";")
            s = Decl(name, typ, tok[2])
            self.decls.append(s)
        elif text == "lock" or text == "unlock":
            self.pos += 1
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            self.expect(";")
            s = LockStmt(arg, line) if text == "lock" else UnlockStmt(arg, line)
        elif text == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self._stmt_as_block(self.parse_stmt())
            els = Block([], line)
            if toks[self.pos][1] == "else":  # only a keyword has this text
                self.pos += 1
                els = self._stmt_as_block(self.parse_stmt())
            s = If(cond, then, els, line)
        elif text == "while":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            s = While(cond, self._stmt_as_block(self.parse_stmt()), line)
        elif text == "return":
            self.pos += 1
            expr = None if toks[self.pos][0] == ";" else self.parse_expr()
            self.expect(";")
            s = Return(expr, line)
        elif text == "create":
            self.pos += 1
            self.expect("(")
            tid = self.parse_expr()
            self.expect(",")
            fn = self.parse_expr()
            self.expect(",")
            arg = self.parse_expr()
            self.expect(")")
            self.expect(";")
            s = CreateStmt(tid, fn, arg, line)
        elif text == "join":
            self.pos += 1
            self.expect("(")
            tid = self.parse_expr()
            self.expect(")")
            self.expect(";")
            s = JoinStmt(tid, None, line)
        else:
            raise ParseError(f"unexpected {text!r}", line, t[3])
        self.depth = depth
        return s

    @staticmethod
    def _stmt_as_block(s: Stmt) -> Block:
        return s if type(s) is Block else Block([s], s.line)

    def _parse_assign_or_call(self, t: tuple) -> Stmt:
        first = self.parse_unary()
        toks = self.toks
        kind = toks[self.pos][0]
        if kind == "(":  # call statement: callee(args);
            self.pos += 1
            args = self.comma_list(self.parse_expr)
            self.expect(";")
            return CallStmt(first, args, None, t[2])
        if kind != "=":
            raise ParseError("expected assignment or call statement", t[2], t[3])
        self.pos += 1
        rhs = toks[self.pos][1]
        if rhs == "malloc":
            self.pos += 1
            self.expect("(")
            typ = self.parse_type_suffix(self.parse_base_type())
            self.expect(")")
            self.expect(";")
            return Assign(first, Malloc(typ, t[2], t[3]), t[2])
        if rhs == "join":
            self.pos += 1
            self.expect("(")
            tid = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return JoinStmt(tid, first, t[2])
        callee = self.parse_unary()
        if toks[self.pos][0] == "(":  # lhs = callee(args);
            self.pos += 1
            args = self.comma_list(self.parse_expr)
            self.expect(";")
            return CallStmt(callee, args, first, t[2])
        expr = self._parse_binary(callee)
        self.expect(";")
        return Assign(first, expr, t[2])

    # --------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        return self._parse_binary(self.parse_unary())

    def _parse_binary(self, left: Expr, min_level: int = 0) -> Expr:
        # precedence climbing: fold every operator of at least min_level into
        # left; the right operand takes the tighter operators that follow it
        toks = self.toks
        while (level := BINARY.get(toks[self.pos][0], -1)) >= min_level:
            op = toks[self.pos]
            self.pos += 1
            self.nest(op)
            right = self._parse_binary(self.parse_unary(), level + 1)
            left = Binary(op[1], left, right, op[2], op[3])
        return left

    def parse_unary(self) -> Expr:
        """A unary expression: operators, then a primary with its postfixes."""
        toks = self.toks
        t = toks[self.pos]
        self.pos += 1
        kind = t[0]
        if kind == "ident":
            e = VarRef(t[1], t[2], t[3])
        elif kind == "int":
            e = IntLit(_int_value(t), t[2], t[3])
        elif kind in ("&", "*", "!", "-"):
            self.nest(t)
            return Unary(kind, self.parse_unary(), t[2], t[3])
        elif kind == "(":
            self.nest(t)
            e = self.parse_expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected {t[1] or kind!r} in expression", t[2], t[3])
        while True:
            t = toks[self.pos]
            kind = t[0]
            if kind == "->" or kind == ".":
                self.nest(t)
                self.pos += 1
                e = FieldAccess(e, self.expect("ident")[1], kind == "->", t[2], t[3])
            elif kind == "[":
                self.nest(t)
                self.pos += 1
                idx = self.parse_expr()
                self.expect("]")
                e = Index(e, idx, t[2], t[3])
            else:
                return e


class _Checker:
    """Name resolution, local renaming, type checking and the address-taken set."""

    def __init__(self, functions: dict[str, Function], globals_: dict[str, Decl],
                 structs: dict[str, list[Decl]]):
        self.functions = functions
        self.globals = globals_
        self.structs = structs
        self.var_types: dict[str, Type] = {}
        self.fn: Function | None = None
        self.scope: dict[str, str] = {}  # bare local name -> qualified
        self.taken: set[str] = set()  # functions used as values

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
                       var_types=self.var_types, address_taken=self.taken)

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
        for d in fn.params + fn.locals:  # the parser collected the locals
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
        for s in block.stmts:
            _CHECK_STMT[type(s)](self, s)

    def _check_assign(self, s: Assign) -> None:
        s.lhs = self._check_lvalue(s.lhs)
        if type(s.rhs) is Malloc:
            self._check_type_known(s.rhs.alloc_type, s.line)
            if s.rhs.alloc_type in (VOID,) or isinstance(s.rhs.alloc_type, (ArrayType, FuncType)):
                raise TypeCheckError(f"cannot malloc {s.rhs.alloc_type}", s.line, 0)
            s.rhs.typ = PointerType(s.rhs.alloc_type)
            if s.lhs.typ != s.rhs.typ:
                raise TypeCheckError(
                    f"malloc({s.rhs.alloc_type}) assigned to {s.lhs.typ}", s.line, 0)
            return
        s.rhs = self._check_expr(s.rhs)
        self._require_assignable(s.lhs.typ, s.rhs.typ, s.line)

    def _check_if(self, s: If) -> None:
        s.cond = self._check_expr(s.cond)
        self._require_int(s.cond, "if condition")
        self._check_block(s.then)
        self._check_block(s.els)

    def _check_while(self, s: While) -> None:
        s.cond = self._check_expr(s.cond)
        self._require_int(s.cond, "while condition")
        self._check_block(s.body)

    def _check_lock(self, s: LockStmt | UnlockStmt) -> None:
        s.arg = self._check_expr(s.arg)
        if s.arg.typ != MUTEX_PTR:
            op = "lock" if type(s) is LockStmt else "unlock"
            raise TypeCheckError(f"{op}() expects mutex*, got {s.arg.typ}", s.line, 0)

    def _check_join(self, s: JoinStmt) -> None:
        s.tid = self._check_expr(s.tid)
        if s.tid.typ != THREAD_ID:
            raise TypeCheckError(f"join() expects thread_t, got {s.tid.typ}", s.line, 0)
        if s.ret is not None:
            s.ret = self._check_lvalue(s.ret)
            if s.ret.typ != INT:
                raise TypeCheckError("join() result must go to an int", s.line, 0)

    def _check_return(self, s: Return) -> None:
        if s.expr is None:
            if self.fn.ret != VOID:
                raise TypeCheckError(f"{self.fn.name} must return {self.fn.ret}", s.line, 0)
        else:
            if self.fn.ret == VOID:
                raise TypeCheckError(f"{self.fn.name} returns void", s.line, 0)
            s.expr = self._check_expr(s.expr)
            self._require_assignable(self.fn.ret, s.expr.typ, s.line)

    def _check_call(self, s: CallStmt) -> None:
        taken = len(self.taken)
        s.callee = self._check_expr(s.callee)
        if type(s.callee) is FuncRef:
            # A direct callee is a function name under '&' and '*' only, so
            # the set grew by that name alone, which is not taken here.
            if len(self.taken) > taken:
                self.taken.discard(s.callee.name)
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

    def _check_create(self, s: CreateStmt) -> None:
        s.tid = self._check_expr(s.tid)
        if s.tid.typ != PointerType(THREAD_ID):
            raise TypeCheckError(f"create() expects thread_t* first, got {s.tid.typ}", s.line, 0)
        s.fn = self._check_expr(s.fn)
        if type(s.fn) is FuncRef:
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

    # --------------------------------------------------------- expressions

    def _check_expr(self, e: Expr) -> Expr:
        return _CHECK_EXPR[type(e)](self, e)

    def _check_int(self, e: IntLit) -> Expr:
        e.typ = INT
        return e

    def _check_var(self, e: VarRef) -> Expr:
        name = e.name
        qual = self.scope.get(name)
        if qual is not None:
            e.name = qual
            e.typ = self.var_types[qual]
            return e
        if name in self.globals:
            e.typ = self.var_types[name]
            return e
        fn = self.functions.get(name)
        if fn is None:
            raise TypeCheckError(f"unknown identifier {name!r}", e.line, e.col)
        self.taken.add(name)
        fr = FuncRef(name, e.line, e.col)
        fr.typ = PointerType(fn.func_type)
        return fr

    def _check_index(self, e: Index) -> Expr:
        e.base = self._check_expr(e.base)
        e.index = self._check_expr(e.index)
        self._require_int(e.index, "array index")
        if not isinstance(e.base.typ, ArrayType):
            raise TypeCheckError(f"cannot index {e.base.typ}", e.line, e.col)
        if not self._is_lvalue(e.base):
            raise TypeCheckError("array expression is not an lvalue", e.line, e.col)
        e.typ = e.base.typ.element
        return e


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


# The checker of each node type, found by one dict lookup on the exact type.
_CHECK_STMT = {
    Decl: lambda self, s: None,  # bound with the function's other locals
    Assign: _Checker._check_assign,
    CallStmt: _Checker._check_call, If: _Checker._check_if, While: _Checker._check_while,
    LockStmt: _Checker._check_lock, UnlockStmt: _Checker._check_lock,
    CreateStmt: _Checker._check_create, JoinStmt: _Checker._check_join,
    Return: _Checker._check_return, Block: _Checker._check_block,
}
_CHECK_EXPR = {
    IntLit: _Checker._check_int, VarRef: _Checker._check_var,
    Unary: _Checker._check_unary, Binary: _Checker._check_binary,
    FieldAccess: _Checker._check_field, Index: _Checker._check_index,
}


def parse(source: str) -> Program:
    """Parse, resolve and type check a program."""
    return _Checker(*_Parser(source).parse_program()).run()
