import contextlib
import functools
import random
import re
import sys
from collections import deque
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make checks.py importable

import lockhound.framework
from lockhound.errors import ParseError
from lockhound.frontend import build_icfa, parse, preprocess
from lockhound.frontend.icfa import (
    FuncEntryOp, FuncExitOp, ThreadEntryOp, ThreadExitOp,
)
from lockhound.frontend.lexer import KEYWORDS, SYMBOLS
from lockhound.frontend.syntax import (
    CallStmt, FuncRef, Program, stmt_exprs, walk_exprs, walk_stmts,
)
from lockhound.generator import GenConfig
from lockhound.lockgraph import LockEdge, close_lock_edges
from lockhound.pointsto import STAR

FIXTURES = Path(__file__).parent / "fixtures"

# The tests' reference for the step kinds build_icfa gives the edges: the op
# classes of the entry and return edges; every other edge is intra.
ENTRY_OPS = (FuncEntryOp, ThreadEntryOp)
EXIT_OPS = (FuncExitOp, ThreadExitOp)
INTER_OPS = ENTRY_OPS + EXIT_OPS

# The scaled generator tier: large programs whose lock graphs dominate.
SCALED = GenConfig(max_threads=20, max_locks=16, wrappers=True, heap=True,
                   loop_create=True, max_regions=8, max_depth=3)


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def icfa_of(source: str):
    return build_icfa(preprocess(parse(source)))


# The framework's solvers: each builds its FIFO queue from framework.deque.
SOLVERS = ("explore", "solve_fs", "solve_fi")


@contextlib.contextmanager
def shuffled_worklists(seed: int):
    """Within the block, every framework solver pops its queued places in a
    random order drawn from one Random(seed): the exploration, both
    propagations and solve_fi alike. The order-independence tests run the
    solvers in here and compare with a plain, first in first out run.

    RandomQueue stands in for the deque the solvers build their queues from.
    Each solver is also wrapped wherever a lockhound or test module binds
    it, and the block fails if no solver ran in it, or if one ran without
    popping from a RandomQueue: a shuffle that silently does nothing would
    make every order-independence test vacuous.
    """
    rng = random.Random(seed)
    pops = [0]

    class RandomQueue(deque):
        def popleft(self):
            pops[0] += 1
            self.rotate(-rng.randrange(len(self)))
            return super().popleft()

    ran: list[tuple[str, bool]] = []  # (solver, whether it popped shuffled)

    def checked(solver):
        @functools.wraps(solver)
        def run(*args, **kw):
            before = pops[0]
            try:
                return solver(*args, **kw)
            finally:
                ran.append((solver.__name__, pops[0] > before))
        return run

    fw = lockhound.framework
    wrapped = {id(getattr(fw, name)): getattr(fw, name) for name in SOLVERS}
    wrapper = {key: checked(fn) for key, fn in wrapped.items()}
    patches = [(fw, "deque", deque)]
    for name, mod in list(sys.modules.items()):
        if name.startswith(("lockhound", "test_")):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)] is value:
                    patches.append((mod, attr, value))
    for mod, attr, value in patches:
        setattr(mod, attr, RandomQueue if value is deque else wrapper[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in patches:
            setattr(mod, attr, value)
    assert ran, "no solver ran in the shuffled block"
    unshuffled = sorted({name for name, shuffled in ran if not shuffled})
    assert not unshuffled, f"{unshuffled} ran without a shuffled queue"


# The tests' reference tokenizer: one compiled pattern cuts the source into
# gapless pieces by maximal munch; a piece's offset is the sum of the
# lengths before it, and its first character tells its kind.
_PIECE = re.compile("|".join([
    r"\n",
    r"[ \t\r]+",
    r"//[^\n]*",
    r"/\*(?:.*?\*/|.*)",  # a block comment, or an unterminated one to the end
    r"[0-9]+",
    r"\w+",  # \w is exactly str.isalnum() or '_'
    *map(re.escape, SYMBOLS),
    r".",  # a bad character
]), re.DOTALL)
_SYMBOL_SET = set(SYMBOLS)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) tuples, or a ParseError, as tokenize() gives."""
    toks = []
    line, line_start, end = 1, 0, 0  # line_start: offset of the line's first character
    text = ""
    for text in _PIECE.findall(source):
        start, end = end, end + len(text)
        c = text[0]
        if text in _SYMBOL_SET:
            kind = text
        elif c.isalpha() or c == "_":
            kind = "kw" if text in KEYWORDS else "ident"
        elif "0" <= c <= "9":
            kind = "int"
        else:
            if c == "\n":
                line += 1
                line_start = end
            elif text.startswith("/*"):
                if len(text) < 4 or not text.endswith("*/"):
                    raise ParseError("unterminated comment", line, start - line_start + 1)
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
            elif c not in " \t\r" and not text.startswith("//"):
                raise ParseError(f"unexpected character {c!r}", line, start - line_start + 1)
            continue
        toks.append((kind, text, line, start - line_start + 1))
    if text.startswith("//"):
        end = start  # the end of input sits at a trailing // comment
    toks.append(("eof", "", line, end - line_start + 1))
    return toks


def reference_address_taken(prog: Program) -> set[str]:
    """The tests' reference for Program.address_taken: functions whose value
    is used anywhere outside a direct call position, by a walk over every
    statement of the parsed program."""
    exprs = []
    for fn in prog.functions.values():
        for s in walk_stmts(fn.body):
            roots = stmt_exprs(s)
            if isinstance(s, CallStmt) and isinstance(s.callee, FuncRef):
                roots = roots[1:]  # direct callees do not count as taken
            for e in roots:
                walk_exprs(e, exprs)
    return {e.name for e in exprs if isinstance(e, FuncRef)}


def close_triples(triples) -> frozenset:
    """close_lock_edges over (held, place, acquired) triples, as triples."""
    closed = close_lock_edges([LockEdge(a, p, b) for (a, p, b) in triples])
    return frozenset((e.held, e.place, e.acquired) for e in closed)


def triple_locks(triples) -> set:
    """Concrete locks mentioned by a set of triples."""
    return {x for (a, _, b) in triples for x in (a, b) if x is not STAR}


# Every test that compares the analysis with the oracle shares one oracle
# run per program, at the largest budget any of them needs.
ORACLE_STATES = 30_000


@functools.cache
def oracle_of(source: str):
    """The oracle's result on source, with copairs, run once per session
    (None when the oracle cannot run). Callers must not modify it."""
    from lockhound.oracle import OracleUnsupported, run_oracle

    try:
        return run_oracle(icfa_of(source), max_states=ORACLE_STATES)
    except OracleUnsupported:
        return None


def analyzed(source: str, cfg=None):
    """Analysis plus the shared oracle result (None when it cannot run)."""
    from lockhound.pipeline import analyze_icfa

    return analyze_icfa(icfa_of(source), cfg), oracle_of(source)


@pytest.fixture(scope="session")
def showcase_source() -> str:
    return load("showcase.mc")


@pytest.fixture(scope="session")
def showcase_icfa(showcase_source):
    return icfa_of(showcase_source)
