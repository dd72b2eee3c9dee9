import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, icfa_of, reference_address_taken, reference_tokenize
from lockhound.errors import MissingMainError, ParseError, TypeCheckError
from lockhound.frontend import build_icfa, parse, preprocess
from lockhound.frontend.lexer import tokenize
from lockhound.frontend.icfa import (
    INTRA, FuncEntryOp, FuncExitOp, GuardOp, ThreadEntryOp, ThreadExitOp, op_text,
)
from lockhound.frontend.syntax import (
    INT, MUTEX, Assign, Binary, CreateStmt, FuncRef, JoinStmt, LockStmt,
    PointerType, Return, Unary, UnlockStmt, VarRef, expr_text, walk_stmts,
)
from lockhound.generator import generate, random_config

import error_positions
from lockhound.pipeline import analyze_source


# ----------------------------------------------------------------- lexer


def test_tokenize_kinds():
    toks = tokenize("int x; x = x + 41; // tail\n")
    assert [(t[0], t[1]) for t in toks[:4]] == [
        ("kw", "int"), ("ident", "x"), (";", ";"), ("ident", "x")]
    assert toks[-1][0] == "eof"
    assert [t[1] for t in toks if t[0] == "int"] == ["41"]


def test_tokenize_longest_symbol_wins():
    toks = tokenize("a->b == c - > d")
    kinds = [t[0] for t in toks[:-1]]
    assert kinds == ["ident", "->", "ident", "==", "ident", "-", ">", "ident"]


def test_tokenize_positions_and_comments():
    toks = tokenize("/* skip\nme */ x\n  y")
    assert [t[1:] for t in toks[:-1]] == [("x", 2, 7), ("y", 3, 3)]


def test_tokenize_errors():
    with pytest.raises(ParseError):
        tokenize("int $;")
    with pytest.raises(ParseError):
        tokenize("/* never closed")


# Exact messages, positions included, as the character-by-character
# tokenizer printed them: columns count a tab or a '\r' as one character,
# and the end of input after a trailing // comment sits at the comment.
@pytest.mark.parametrize("src,message", [
    ("int $;", "1:5: unexpected character '$'"),
    ("int main() {\n  /* never closed\n  return 0; }", "2:3: unterminated comment"),
    ("/* a\n   b */ int x; int main() { x = 1 # 2; return 0; }",
     "2:35: unexpected character '#'"),
    ("int main() { return 0; }\n/* one */ /* two\n\n */  ;", "4:6: expected type, found ';'"),
    ("int main() {\n\tint x;\n\t\tx = 1 $ 2;\n\treturn 0; }", "3:9: unexpected character '$'"),
    ("int main() {\r\n  int x;\r\n  x = 1 @;\r\n  return 0; }",
     "3:9: unexpected character '@'"),
    ("int main() { return 0; // tail", "1:24: unexpected 'eof' in expression"),
    ("int x; int main() { x = ½; return 0; }", "1:25: unexpected character '½'"),
    ("int main() { int a; a = 1 + (2 == ; return 0; }", "1:35: unexpected ';' in expression"),
])
def test_parse_error_messages(src, message):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == message


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_non_ascii_digits_are_unexpected_characters(digit):
    # '²'.isdigit() holds but int('²') fails, and int('٣') is 3: integer
    # literals are ASCII digits only
    with pytest.raises(ParseError) as err:
        analyze_source(f"int x; int main() {{ x = {digit}; return 0; }}")
    assert str(err.value) == f"1:25: unexpected character {digit!r}"
    # inside an identifier they are still letters or digits
    parse(f"int x{digit}; int main() {{ x{digit} = 1; return 0; }}")


LEX_PIECES = [" ", "\t", "\r", "\n", "/*", "*/", "//", "/", "x", "_a9", "é", "Ł", "²",
              "int", "while", "0", "42", "==", "=", "-", ">", "->", "!", "(", ";", "$"]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=30).map("".join))
def test_tokens_and_errors_sit_at_their_positions(source):
    lines = source.split("\n")

    def text_at(line: int, col: int, n: int) -> str:
        assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
        return lines[line - 1][col - 1:col - 1 + n]

    try:
        toks = tokenize(source)
    except ParseError as e:
        if e.msg == "unterminated comment":
            assert text_at(e.line, e.col, 2) == "/*"
        else:
            assert e.msg == f"unexpected character {text_at(e.line, e.col, 1)!r}"
        return
    for _, text, line, col in toks:
        assert text_at(line, col, len(text)) == text


def lexed(tokenizer, source: str):
    try:
        return tokenizer(source)
    except ParseError as e:
        return str(e)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=30).map("".join))
def test_tokenize_equals_the_reference_on_lex_pieces(source):
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)


def test_tokenize_equals_the_reference_on_programs():
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed)) for seed in range(500)]  # corpus 0-499
    for src in sources:
        toks = lexed(tokenize, src)
        assert all(type(t) is tuple for t in toks)
        assert toks == lexed(reference_tokenize, src)


def test_end_of_input_after_a_trailing_line_comment_sits_at_the_comment():
    src = "int x;\n  // tail"
    assert tokenize(src)[-1] == ("eof", "", 2, 3) == reference_tokenize(src)[-1]


def test_error_positions_match_the_golden_file():
    # every fixture with one token blanked out, str(error) or "ok" for each
    assert error_positions.GOLDEN.read_text().splitlines() == error_positions.lines()


# ---------------------------------------------------------------- parser


def test_parse_shapes_and_qualification():
    prog = parse("""
        struct pair { int a; mutex m; };
        mutex g;
        int t[3];
        int helper(int v) { int loc; loc = v + 1; return loc; }
        int main() { int z; z = helper(2); return z; }
    """)
    assert set(prog.functions) == {"helper", "main"}
    assert set(prog.globals) == {"g", "t"}
    assert [d.name for d in prog.structs["pair"]] == ["a", "m"]
    helper = prog.functions["helper"]
    assert [p.name for p in helper.params] == ["helper::v"]
    assert [d.name for d in helper.locals] == ["helper::loc"]
    assert prog.var_types["helper::loc"] == INT
    assert prog.var_types["g"] == MUTEX


def test_parse_expression_structure():
    prog = parse("int main() { int a; int b; a = 0; b = a + 1 == 2; return b; }")
    assign = prog.functions["main"].body.stmts[3]
    assert isinstance(assign.rhs, Binary) and assign.rhs.op == "=="
    assert isinstance(assign.rhs.left, Binary) and assign.rhs.left.op == "+"

    def grouped(e) -> str:
        if isinstance(e, Binary):
            return f"({grouped(e.left)} {e.op} {grouped(e.right)})"
        return expr_text(e)

    # every binary operator associates left; '+'/'-' bind tighter than the
    # comparisons, and '<'-like ones tighter than '=='/'!='
    for src, want in [
        ("a - b - c", "((a - b) - c)"),
        ("a < b == c != a", "(((a < b) == c) != a)"),
        ("a == b < c + d - 1", "(a == (b < ((c + d) - 1)))"),
        ("-a + (b - c) >= !b", "((-a + (b - c)) >= !b)"),
    ]:
        prog = parse(f"int main() {{ int a; int b; int c; int d; a = {src}; return a; }}")
        assert grouped(prog.functions["main"].body.stmts[4].rhs) == want


def test_parse_function_pointer_declarator():
    prog = parse("""
        int f(int x) { return x; }
        int main() { int (*fp)(int); int r; fp = f; r = fp(1); return r; }
    """)
    fp_t = prog.var_types["main::fp"]
    assert isinstance(fp_t, PointerType) and fp_t.pointee.params == (INT,)
    assign = prog.functions["main"].body.stmts[2]
    assert isinstance(assign.rhs, FuncRef) and assign.rhs.name == "f"


def test_parse_field_and_deref():
    prog = parse("""
        struct node { mutex m; int v; };
        struct node *h;
        int main() { h = malloc(struct node); h->v = 1; lock(&h->m); unlock(&h->m); return 0; }
    """)
    lockstmt = prog.functions["main"].body.stmts[2]
    assert isinstance(lockstmt.arg, Unary) and lockstmt.arg.op == "&"
    assert lockstmt.arg.operand.arrow and lockstmt.arg.operand.name == "m"


@pytest.mark.parametrize("src,err", [
    ("int main() { return 0 }", ParseError),
    ("int main() { lock(5); return 0; }", TypeCheckError),
    ("mutex m; int main() { lock(m); return 0; }", TypeCheckError),  # needs mutex*
    ("int main(int x) { return 0; }", TypeCheckError),
    ("void main() { }", TypeCheckError),
    ("int f() { return 1; } int f() { return 2; }", ParseError),
    ("int main() { int x; int x; return 0; }", TypeCheckError),
    ("int main() { y = 1; return 0; }", TypeCheckError),
    ("int main() { int p; p = malloc(void); return 0; }", TypeCheckError),
    ("struct s { struct t x; }; int main() { return 0; }", TypeCheckError),
    ("int w(int a) { return 0; } int main() { thread_t t; create(t, w, 0); return 0; }",
     TypeCheckError),  # create needs thread_t*
    ("void w(int a) { } int main() { thread_t t; create(&t, w, 0); return 0; }",
     TypeCheckError),  # thread functions return int
    ("int main() { struct nope *p; return 0; }", TypeCheckError),
    ("int main() { if (1) { } return 0; }", None),
])
def test_parse_and_check_errors(src, err):
    if err is None:
        parse(src)
    else:
        with pytest.raises(err):
            parse(src)


# ------------------------------------------- returns and calls through pointers
# Every lowering the builder does for a return and a call through a pointer:
# calls with 1, 2 and 3 candidates (and none), with and without a left-hand
# side, in a loop and in an else-if chain; a create through a pointer; early
# returns in int and void functions, in a loop and in both branches;
# functions that fall off their end; and dead code after a return.
LOWERING_SRC = """\
    mutex m;
    int g;

    int a1(int a) { return a + 1; }
    int a2(int a) {
      if (a == 0) { return 0; } else { return 1; }
      g = a;
    }
    int a3(int a) {
      while (a) {
        if (a == 2) { return 2; }
        a = a - 1;
      }
      lock(&m);
      g = a;
      unlock(&m);
      return a;
    }
    int b1(int a, int b) { if (a) { return b; } return a; }
    int b2(int a, int b) { g = a; }
    void c1(int a) {
      while (a) { if (a == 3) { return; } a = a - 1; }
      lock(&m);
      unlock(&m);
    }
    void c2(int a) { if (a) { return; } else { return; } g = 1; }
    void c3(int a) { return; g = a; }
    int helper(int a) { return a; }
    int e1(int *p) { return 0; }

    int main() {
      int (*fa)(int);
      int (*fb)(int, int);
      void (*fc)(int);
      void (*fd)(mutex *);
      int (*fe)(int *);
      int r;
      thread_t t;
      fa = a1;
      fa = a2;
      fa = &a3;
      fb = b1;
      fb = &b2;
      fc = c1;
      fe = e1;
      r = fa(1);
      fa(2);
      r = fb(r, 1);
      fb(1, 2);
      fc(r);
      fd(&m);
      r = fe(&g);
      while (r) {
        r = fa(r);
        fc(0);
      }
      if (r == 1) {
        r = helper(r);
      } else if (r == 2) {
        r = fb(r, r);
      } else if (r == 3) {
        fc(r);
      } else {
        fa(r);
      }
      create(&t, fa, 5);
      join(t);
      c2(r);
      c3(r);
      return r;
    }
"""
LOWERING_GOLDEN = FIXTURES / "lowering.txt"


def lowering_lines(icfa) -> list[str]:
    """The automaton of a program: its dot text, each location's function
    and line, the program's variable types and the warnings."""
    return (icfa.to_dot().splitlines()
            + [f"loc {loc.id} {loc.func} {loc.line}" for loc in icfa.locations]
            + [f"var {name} {typ}" for name, typ in icfa.prog.var_types.items()]
            + [f"warning {w}" for w in icfa.warnings])


def test_lowering_matches_the_golden_file():
    # the builder declares each f::__ret in var_types, so a second build of
    # one program must find the table as the first left it and change nothing
    prog = preprocess(parse(LOWERING_SRC))
    first = lowering_lines(build_icfa(prog))
    assert LOWERING_GOLDEN.read_text().splitlines() == first == lowering_lines(build_icfa(prog))


def test_build_icfa_needs_the_candidate_table():
    src = "int main() { return 0; }"
    with pytest.raises(ValueError, match="preprocess"):
        build_icfa(parse(src))
    assert build_icfa(preprocess(parse(src))).functions.keys() == {"main"}




def test_early_returns_set_ret_and_jump_to_the_one_exit():
    icfa = icfa_of("""
        int f(int x) { if (x == 0) { return 7; } return x; }
        int main() { int r; r = f(1); return r; }
    """)
    f = icfa.functions["f"]
    into = [e for e in icfa.edges if e.tgt == f.exit]
    sets = [e for e in icfa.edges
            if isinstance(e.op, Assign) and e.op.lhs.name == "f::__ret"]
    # each return sets f::__ret and jumps to the exit, whose edges all carry
    # one final return of f::__ret
    assert [expr_text(e.op.rhs) for e in sets] == ["7", "x"]
    assert [e.src for e in into] == [e.tgt for e in sets]
    assert all(isinstance(e.op, Return) and e.op is into[0].op for e in into)
    assert isinstance(f.ret_expr, VarRef) and f.ret_expr.name == "f::__ret"
    assert into[0].op.expr is f.ret_expr and icfa.prog.var_types["f::__ret"] == INT
    # main ends in its only return, and its exit edge carries that return
    main = icfa.prog.functions["main"]
    assert [e.op for e in icfa.edges if e.tgt == icfa.functions["main"].exit] == \
        [main.body.stmts[-1]]
    assert "main::__ret" not in icfa.prog.var_types


def test_address_taken_and_fp_dispatch():
    prog = parse("""
        int w1(int a) { return 1; }
        int w2(int a) { return 2; }
        int other(int a, int b) { return a; }
        int main() {
            int (*fp)(int);
            int r;
            fp = w1;
            if (0) { fp = w2; }
            r = fp(3);
            return r;
        }
    """)
    assert prog.address_taken == reference_address_taken(prog) == {"w1", "w2"}
    icfa = build_icfa(preprocess(prog))
    # if (fp == w1) w1(3) else if (fp == w2) w2(3), the else-if a failed guard
    disp = [e for e in icfa.edges
            if isinstance(e.op, GuardOp) and isinstance(e.op.cond, Binary)]
    assert [op_text(e.op) for e in disp] == [
        "[fp == w1]", "![fp == w1]", "[fp == w2]", "![fp == w2]"]
    then_w1, else_w1, then_w2, else_w2 = disp
    assert else_w1.tgt == then_w2.src == else_w2.src
    for guard, callee in ((then_w1, "w1"), (then_w2, "w2")):
        assert [icfa.func_of(e.tgt) for e in icfa.out_edges[guard.tgt]] == [callee]

    # a function name in every statement position, each nested in blocks
    prog = parse("""
        struct S { int (*f)(int); };
        struct S arr[2];
        mutex ms[2];
        int t_rhs(int a) { return 0; }
        int t_arg(int a) { return 0; }
        int t_callee(int a) { return 0; }
        int t_if(int a) { return 0; }
        int t_while(int a) { return 0; }
        int t_carg(int a) { return 0; }
        int t_ret(int a) { return 0; }
        int t_lock(int a) { return 0; }
        int runner(int (*g)(int)) { return 0; }
        int use(int (*g)(int)) { return 0; }
        int chk(int (*g)(int)) {
            if (1) { } else { while (1) { return g == t_ret; } }
            return 0;
        }
        int main() {
            int (*fp)(int);
            int r;
            thread_t t;
            fp = t_arg;
            if (1) {
                while (r) { if (0) { } else { fp = t_rhs; } }
            } else {
                if (1) { r = use(t_arg); r = arr[fp == t_callee].f(3); }
                if (fp == t_if) { while (fp != t_while) { r = chk(fp); } }
            }
            while (0) {
                { create(&t, runner, t_carg); }
                if (1) { lock(&ms[fp == t_lock]); unlock(&ms[0]); }
            }
            return r;
        }
    """)
    assert prog.address_taken == reference_address_taken(prog) == {
        "t_rhs", "t_arg", "t_callee", "t_if", "t_while", "runner", "t_carg",
        "t_ret", "t_lock"}


def test_address_taken_is_the_parsed_programs():
    # the set that preprocess and build_icfa read is one walk over the
    # program as parsed
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed)) for seed in range(40)]
    for src in sources:
        taken = icfa_of(src).prog.address_taken
        assert taken and taken == reference_address_taken(parse(src))


def test_code_after_a_return_still_takes_addresses():
    # the builder skips the dead assignment, but g stays a candidate for the
    # create through fp, as it would for a call through fp
    icfa = icfa_of("""
        int f(int a) { return 0; }
        int g(int a) { return 1; }
        int main() {
            int (*fp)(int);
            thread_t t;
            fp = f;
            create(&t, fp, 0);
            join(t);
            return 0;
            fp = &g;
        }
    """)
    started = {icfa.func_of(e.tgt) for e in icfa.edges if isinstance(e.op, ThreadEntryOp)}
    assert started == {"f", "g"}


def test_fp_call_with_no_candidates_warns():
    icfa = icfa_of("""
        int main() { int (*fp)(int); int r; r = fp(3); return r; }
    """)
    assert "line 2: call through function pointer has no candidates, dropped" in icfa.warnings
    assert [op_text(e.op) for e in icfa.edges] == ["return r"]  # the call is dropped


def test_fp_call_in_dead_code_is_not_compiled_and_does_not_warn():
    # the builder compiles no statement after a return, so a call through a
    # pointer without candidates there makes no warning
    icfa = icfa_of("""
        int main() { int (*fp)(int); int r; r = 0; return r; r = fp(3); }
    """)
    assert not any("no candidates" in w for w in icfa.warnings)
    assert [op_text(e.op) for e in icfa.edges] == ["r = 0", "__ret = r", "return __ret"]


# ------------------------------------------------------------------ icfa


def test_icfa_requires_main():
    with pytest.raises(MissingMainError):
        icfa_of("int f() { return 0; }")


def test_icfa_showcase_wiring(showcase_icfa):
    icfa = showcase_icfa
    assert icfa.entry_fn == "main"
    assert set(icfa.functions) == {"thread1", "func2", "main"}
    assert icfa.create_sites == {18}

    kinds = {}
    for e in icfa.edges:
        kinds.setdefault(type(e.op).__name__, []).append(e)
    assert len(kinds["LockStmt"]) == 10 and len(kinds["UnlockStmt"]) == 10
    assert len(kinds["ThreadEntryOp"]) == 1
    te = kinds["ThreadEntryOp"][0]
    assert icfa.func_of(te.tgt) == "thread1" and te.src == 18

    # the thread's exit resumes after the create only; the join is one
    # intra edge, and no edge leaves the thread's exit for it
    tx, = kinds["ThreadExitOp"]
    assert tx.call_site == 18 and icfa.func_of(tx.tgt) == "main"
    je, = [e for e in icfa.edges if isinstance(e.op, JoinStmt)]
    assert je.kind == INTRA and icfa.func_of(je.src) == "main"
    assert [e.tgt for e in icfa.edges if e.src == tx.src] == [tx.tgt]

    # direct call wiring for func2: entry from main, exit back after the call
    fe = [e for e in kinds["FuncEntryOp"] if icfa.func_of(e.tgt) == "func2"]
    fx = [e for e in kinds["FuncExitOp"] if icfa.func_of(e.src) == "func2"]
    assert len(fe) == 1 and len(fx) == 1
    assert fx[0].call_site == fe[0].src
    assert icfa.func_of(fx[0].tgt) == "main"

    # no plain intra edge skips over a call site
    call_src = fe[0].src
    assert all(isinstance(e.op, FuncEntryOp) for e in icfa.out_edges[call_src])

    # statement edges carry the program's own statements, each on one edge
    stmt_kinds = (Assign, LockStmt, UnlockStmt, CreateStmt, JoinStmt)
    stmts = {id(s): s for fn in icfa.prog.functions.values()
             for s in walk_stmts(fn.body) if isinstance(s, stmt_kinds)}
    carried = [e.op for e in icfa.edges if isinstance(e.op, stmt_kinds)]
    assert all(stmts.get(id(op)) is op for op in carried)
    assert len({id(op) for op in carried}) == len(carried) == len(stmts)
    # and every edge into an exit carries its function's one final return:
    # the body's trailing return, or for func2, which falls off its end, the
    # builder's own
    for name, fi in icfa.functions.items():
        final = icfa.prog.functions[name].body.stmts[-1]
        into = [e for e in icfa.edges if e.tgt == fi.exit]
        assert into and all(e.op is into[0].op for e in into)
        if name == "func2":
            assert isinstance(into[0].op, Return) and into[0].op.expr is None
        else:
            assert isinstance(final, Return) and into[0].op is final


def test_thread_exit_resumes_only_after_the_creates_that_start_it():
    icfa = icfa_of("""
        int worker(int a) { return 0; }
        int other(int a) { return 0; }
        int main() {
            thread_t t1;
            thread_t t2;
            create(&t1, worker, 0);
            create(&t2, other, 1);
            join(t1);
            join(t2);
            return 0;
        }
    """)
    after = {e.src: e.tgt for e in icfa.edges if isinstance(e.op, CreateStmt)}
    starts = {icfa.func_of(e.tgt): e.src for e in icfa.edges
              if isinstance(e.op, ThreadEntryOp)}
    exits = [e for e in icfa.edges if isinstance(e.op, ThreadExitOp)]
    assert len(after) == 2 and len(exits) == 2
    for e in exits:
        site = starts[icfa.func_of(e.src)]
        assert e.call_site == site and e.tgt == after[site]


def test_icfa_seed_and_lock_helpers(showcase_icfa):
    icfa = showcase_icfa
    seeds = icfa.seed_edges()
    assert {type(e.op).__name__ for e in seeds} == \
        {"LockStmt", "UnlockStmt", "CreateStmt", "JoinStmt"}
    assert len(icfa.lock_edges()) == 10
    assert icfa.place_length_bound() >= 3


def test_icfa_dead_function_warning():
    icfa = icfa_of("""
        void helper() { }
        void unused() { helper(); }
        int worker(int a) { return 0; }
        int main() { thread_t t; create(&t, worker, 0); join(t); return 0; }
    """)
    # worker is reached only through create; helper only from dead code
    assert list(icfa.dead_functions()) == ["helper", "unused"]
    assert any("unused" in w for w in icfa.warnings)
    assert any("helper" in w for w in icfa.warnings)


def test_icfa_to_dot_smoke(showcase_icfa):
    dot = showcase_icfa.to_dot()
    assert dot.startswith("digraph") and "thread1" in dot
