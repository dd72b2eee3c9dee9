"""Exhaustive-interleaving reference executor: witnesses, UB, determinism."""

import gc
import hashlib
import json
from collections import deque
from itertools import combinations

import pytest

from checks import check_may_covers, check_must_subset, oracle_facts
from conftest import FIXTURES, INTER_OPS, analyzed, icfa_of, load
from lockhound.cli import main
from lockhound.frontend.icfa import FuncEntryOp, GuardOp, SkipOp
from lockhound.frontend.syntax import (
    Assign, CreateStmt, JoinStmt, LockStmt, Return, UnlockStmt,
)
from lockhound.generator import generate, random_config
from lockhound.oracle import (
    MAX_DEPTH, Oracle, OracleUnsupported, _independent, run_oracle,
)
from lockhound.pointsto import ArrayCellObj, FieldObj, GlobalObj, obj_label

MUTANTS = [
    "mutant_nogate", "mutant_nojoin", "mutant_double", "mutant_ring",
    "mutant_heap", "mutant_wrapper", "mutant_loop_create",
    "mutant_branch_join",
]


def test_showcase_has_no_deadlock(showcase_icfa):
    res = run_oracle(showcase_icfa)
    assert res.witnesses == []
    assert res.terminals >= 1
    assert res.ub_events == 0
    assert not res.truncated
    assert res.copairs  # concurrency pairs were observed


def test_wrapper_ok_has_no_deadlock():
    res = run_oracle(icfa_of(load("wrapper_ok.mc")))
    assert res.witnesses == []
    assert res.terminals >= 1
    assert not res.truncated


@pytest.mark.parametrize("name", MUTANTS)
def test_every_mutant_deadlocks(name):
    res = run_oracle(icfa_of(load(name + ".mc")))
    assert len(res.witnesses) >= 1
    cyc = res.witnesses[0].cycle
    assert len(cyc) >= 2  # at least two threads block each other


def test_witness_shape():
    res = run_oracle(icfa_of(load("mutant_nogate.mc")))
    assert len(res.witnesses) == 1
    w = res.witnesses[0]
    labels = sorted(obj_label(o) for o in res.abstract_locks(w.lock_cells()))
    assert labels == ["m2", "m3"]
    assert all(isinstance(tid, int) and isinstance(tag, str)
               for tid, tag in w.schedule)
    tids = {tid for tid, _, _ in w.cycle}
    assert len(tids) == len(w.cycle)  # one blocked entry per thread


UB_PROGRAMS = {
    "lock-through-uninitialized-pointer": """
mutex m1;
int main() { mutex* p; lock(p); unlock(p); return 0; }
""",
    "relock-of-held-mutex": """
mutex m1;
int main() { lock(&m1); lock(&m1); unlock(&m1); return 0; }
""",
    "unlock-without-holding": """
mutex m1;
int main() { unlock(&m1); return 0; }
""",
    "double-join": """
int w(int a) { return a; }
int main() { thread_t t; create(&t, w, 1); join(t); join(t); return 0; }
""",
    "lock-through-integer": """
mutex m1;
int main() { int x; x = 5; mutex* p; p = x; lock(p); return 0; }
""",
    "array-index-out-of-bounds": """
mutex pool[2];
int main() { int i; i = 5; lock(&pool[i]); return 0; }
""",
    "lock-through-null": """
mutex m1;
int main() { mutex* p; p = 0; lock(p); return 0; }
""",
}


@pytest.mark.parametrize("name", sorted(UB_PROGRAMS))
def test_undefined_behavior_prunes_the_path(name):
    res = run_oracle(icfa_of(UB_PROGRAMS[name]))
    assert res.ub_events >= 1
    assert res.witnesses == []
    assert res.terminals == 0  # the only path dies at the fault


def test_state_cap_sets_truncated(showcase_icfa):
    res = run_oracle(showcase_icfa, max_states=50)
    assert res.truncated
    assert res.states == 50


def test_depth_bound_sets_truncated(tmp_path, capsys):
    # One thread counting far past MAX_DEPTH steps: one state per step, so
    # the search keeps the initial state and MAX_DEPTH more, and a cut
    # search proves nothing.
    prog = tmp_path / "count.mc"
    prog.write_text("""
int main() { int k; k = 0; while (k < 15000) { k = k + 1; } return 0; }
""")
    assert main(["oracle", str(prog)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["states"] == MAX_DEPTH + 1
    assert out["truncated"]


def test_state_cap_is_exact_at_every_budget(showcase_icfa):
    # A new state past the cap is added and then discarded again: every cap
    # must keep exactly min(cap, full) states, truncated only below full.
    full = run_oracle(showcase_icfa).states
    for cap in range(1, full + 2):
        res = run_oracle(showcase_icfa, max_states=cap, collect_copairs=False)
        assert res.states == min(cap, full), cap
        assert res.truncated == (cap < full), cap


INTRA_KINDS = {SkipOp: "skip", Return: "ret-edge", Assign: "assign",
               LockStmt: "lock", UnlockStmt: "unlock", CreateStmt: "create",
               JoinStmt: "join"}


def reference_move(icfa, loc):
    """What a thread at loc does next, split straight from the out-edges:
    a call wins over the function exit, which wins over the intra edges."""
    out = icfa.out_edges[loc]
    calls = [e for e in out if isinstance(e.op, FuncEntryOp)]
    if calls:
        return "call", calls[0]
    if any(loc == fi.exit for fi in icfa.functions.values()):
        return "exit", None
    intra = [e for e in out if not isinstance(e.op, INTER_OPS)]
    if not intra:
        return "none", None
    if all(isinstance(e.op, GuardOp) for e in intra):
        return "guard", tuple(intra)
    return INTRA_KINDS.get(type(intra[0].op), "none"), intra[0]


def test_step_table_matches_the_out_edges():
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed)) for seed in range(60)]
    kinds = set()
    for src in sources:
        icfa = icfa_of(src)
        moves = Oracle(icfa)._moves
        assert len(moves) == len(icfa.locations)
        for loc, move in enumerate(moves):
            kind, arg = reference_move(icfa, loc)
            kinds.add(kind)
            assert move.kind == kind, (loc, move)
            if kind != "none":
                assert move.arg == arg, (loc, move)
            assert move.reads_mem == (kind not in ("skip", "ret-edge", "none"))
    assert kinds >= {"call", "exit", "guard", *INTRA_KINDS.values()}


# Two threads allocate at different sites; whichever allocates first used to
# take serial 0, so one serial named both sites and the facts blamed the
# wrong allocation.
TWO_ALLOC_SITES = """
struct node { mutex m; };

int w1(int a) {
    struct node *p;
    p = malloc(struct node);
    lock(&p->m);
    unlock(&p->m);
    return 0;
}

int w2(int a) {
    struct node *q;
    q = malloc(struct node);
    lock(&q->m);
    unlock(&q->m);
    return 0;
}

int main() {
    thread_t t1;
    thread_t t2;
    create(&t1, w1, 0);
    create(&t2, w2, 0);
    join(t1);
    join(t2);
    return 0;
}
"""


def test_heap_serials_name_one_site_each():
    a, res = analyzed(TWO_ALLOC_SITES)
    assert check_may_covers(a, res) == []
    assert check_must_subset(a, res) == []


@pytest.mark.parametrize("src", [
    pytest.param("""
int f(int n) { if (n == 0) { return 0; } int r; r = f(n - 1); return r; }
int main() { int x; x = f(3); return x; }
""", id="direct"),
    pytest.param("""
int f(int n) { int r; r = 0; if (n > 0) { r = g(n - 1); } return r; }
int g(int n) { int r; r = f(n); return r; }
int main() { int x; x = f(2); return x; }
""", id="mutual"),
    pytest.param("""
int worker(int a) { spawn(1); return 0; }
void spawn(int n) { thread_t t; if (n == 0) { create(&t, worker, 0); join(t); } }
int main() { spawn(0); return 0; }
""", id="through-creator"),
])
def test_recursion_is_rejected(src):
    with pytest.raises(OracleUnsupported):
        run_oracle(icfa_of(src))


@pytest.mark.parametrize("src", [
    pytest.param("""
int a[99999999999999999999];
int main() { a[0] = 1; return 0; }
""", id="global"),
    pytest.param("""
int main() { int a[99999999]; a[0] = 1; return 0; }
""", id="local"),
    pytest.param("""
struct s { mutex m; };
struct s a[99999999999999999999];
int main() { return 0; }
""", id="cell-free-elements"),
    pytest.param("struct s0 { int a; int b; };\n" + "".join(
        f"struct s{i} {{ struct s{i - 1} a; struct s{i - 1} b; }};\n"
        for i in range(1, 40)) + "struct s39 g;\nint main() { return 0; }\n",
        id="nested-structs"),
])
def test_too_many_memory_cells_are_rejected(src):
    # the cells are counted, each struct once, before any is listed, so
    # this neither hangs nor runs out of memory
    with pytest.raises(OracleUnsupported, match="too many memory cells"):
        run_oracle(icfa_of(src))


def test_runs_are_deterministic(showcase_source):
    sources = [showcase_source] + [generate(seed) for seed in (3, 4, 5)]
    for src in sources:
        icfa = icfa_of(src)
        try:
            a = run_oracle(icfa, max_states=20_000)
            b = run_oracle(icfa, max_states=20_000)
        except OracleUnsupported:
            continue
        assert a.states == b.states
        assert a.arrivals == b.arrivals
        assert a.copairs == b.copairs
        assert a.terminals == b.terminals
        assert len(a.witnesses) == len(b.witnesses)


def test_abstract_cell_mapping(showcase_icfa):
    res = run_oracle(showcase_icfa, max_states=10)
    assert res.abstract_cell(("g", "m1")) == GlobalObj("m1")
    assert res.abstract_cell(("g", "pool", 0)) == ArrayCellObj(GlobalObj("pool"))
    assert res.abstract_cell(("g", "n", "m")) == FieldObj(GlobalObj("n"), "m")


GOLDEN_FACTS = FIXTURES / "oracle_facts.json"
FIXTURE_PROGRAMS = sorted([m + ".mc" for m in MUTANTS] + ["showcase.mc", "wrapper_ok.mc"])


@pytest.mark.parametrize("name", FIXTURE_PROGRAMS + sorted(UB_PROGRAMS))
def test_oracle_facts_match_golden(name):
    """States, counts, arrivals, copairs, rw, serial sites and witnesses
    (cycles and schedules, in order), as captured in the golden file;
    `python3 tools/oracle_digest.py --golden tests/fixtures/oracle_facts.json`
    rewrites it."""
    source = UB_PROGRAMS[name] if name in UB_PROGRAMS else load(name)
    want = json.loads(GOLDEN_FACTS.read_text())[name]
    assert oracle_facts(run_oracle(icfa_of(source))) == want


def commuting_pairs(icfa, limit: int) -> int:
    """Check the independence premise of the sleep sets on the first `limit`
    states in breadth-first order: two steps whose footprints are
    independent stay enabled after each other, keep their footprints, and
    reach the same state in either order. Returns the pairs checked."""
    oracle = Oracle(icfa, collect_copairs=False)

    def steps(state) -> dict:
        return {tid: (s2, (set(reads), set(writes)))
                for tid, _, s2, (reads, writes), _ in oracle._expand(state, [], 0)}

    s0 = oracle._initial_state()
    seen, queue, pairs = {s0}, deque([s0]), 0
    while queue and len(seen) < limit:
        here = steps(queue.popleft())
        for s2, _ in here.values():
            if s2 not in seen:
                seen.add(s2)
                queue.append(s2)
        for t, u in combinations(here, 2):
            (st, ft), (su, fu) = here[t], here[u]
            if not _independent(ft, fu):
                continue
            after_t, after_u = steps(st), steps(su)
            assert u in after_t and t in after_u, (t, u)
            assert after_t[u][1] == fu and after_u[t][1] == ft, (t, u)
            assert after_t[u][0] == after_u[t][0], (t, u)
            pairs += 1
    return pairs


# Programs whose threads race: on a global one reads and one writes, on a
# cell of a returning frame, or on state that lives outside memory, where
# each pseudo-cell of the footprint keeps one of them apart.
RACES = {
    "creators": """
int leaf(int a) { return a; }
int spawner(int a) { thread_t t; create(&t, leaf, a); join(t); return 0; }
int main() {
    thread_t t1; thread_t t2;
    create(&t1, spawner, 1); create(&t2, spawner, 2);
    join(t1); join(t2); return 0;
}
""",
    "joiners": """
thread_t g;
int leaf(int a) { return a; }
int joiner(int a) { join(g); return 0; }
int main() {
    thread_t t1; thread_t t2;
    create(&g, leaf, 0); create(&t1, joiner, 1); create(&t2, joiner, 2);
    join(t1); join(t2); return 0;
}
""",
    "one-malloc-site": """
struct node { int v; };
int worker(int a) { struct node *p; p = malloc(struct node); p->v = a; return 0; }
int main() {
    thread_t t1; thread_t t2;
    create(&t1, worker, 1); create(&t2, worker, 2);
    join(t1); join(t2); return 0;
}
""",
    "reader-writer": """
int g;
int reader(int a) { int v; v = g; return v; }
int writer(int a) { g = a; return 0; }
int main() {
    thread_t t1; thread_t t2;
    create(&t1, reader, 0); create(&t2, writer, 1);
    join(t1); join(t2); return 0;
}
""",
    "dying-frame": """
int reader(int *p) { int v; v = *p; return v; }
void spawn() { int x; thread_t t; x = 1; create(&t, reader, &x); }
int main() { spawn(); return 0; }
""",
    "dying-thread": """
int reader(int *p) { int v; v = *p; return v; }
int spawner(int a) { int x; thread_t t; x = 1; create(&t, reader, &x); return 0; }
int main() { thread_t s; create(&s, spawner, 0); join(s); return 0; }
""",
}


@pytest.mark.parametrize("name", sorted(RACES))
def test_independent_steps_commute_in_races(name):
    assert commuting_pairs(icfa_of(RACES[name]), 1_000) >= 1


def test_independent_steps_commute():
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed)) for seed in range(40)]
    pairs = 0
    for src in sources:
        try:
            pairs += commuting_pairs(icfa_of(src), 300)
        except OracleUnsupported:
            continue
    assert pairs >= 1000  # the premise must not hold vacuously


def test_rw_holds_only_memory_cells():
    # Pseudo-cells (mutexes, thread table, statuses, malloc counters) are
    # footprint entries only; rw names memory cells.
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed)) for seed in range(40)]
    for src in sources:
        try:
            res = run_oracle(icfa_of(src), max_states=2_000,
                             collect_copairs=False)
        except OracleUnsupported:
            continue
        for idx, (reads, writes) in res.rw.items():
            assert all(c[0] in ("g", "l", "h") for c in reads | writes), idx


@pytest.mark.parametrize("enabled", [True, False])
def test_run_oracle_restores_the_collector(enabled, showcase_icfa, monkeypatch):
    during = []
    record = Oracle._record_state
    monkeypatch.setattr(Oracle, "_record_state", lambda self, *a: (
        during.append(gc.isenabled()), record(self, *a)))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        run_oracle(showcase_icfa, max_states=50)
        assert gc.isenabled() == enabled
        with pytest.raises(OracleUnsupported):  # raised by a step mid-search
            run_oracle(icfa_of("""
int f(int n) { if (n == 0) { return 0; } int r; r = f(n - 1); return r; }
int main() { int x; x = f(3); return x; }
"""))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)  # paused while the search runs


# sha256 of every oracle fact (tests/checks.oracle_facts, copairs included)
# of corpus seeds 0-39 and of RACES, each run with max_states=2,000, written
# one program a line as tools/oracle_digest.py writes them. It pins the facts
# the labels leave out (rw, copairs, serial sites, UB events, terminals and
# witness schedules), and through the truncated runs the order of the search.
CORPUS_FACTS_SHA256 = (
    "1bf0b7348c3a4a1ad04676003d2f03dae5efc6b62adb247040f548c21c1eb998")


def test_oracle_facts_on_generated_programs_are_pinned():
    programs = [(f"corpus-{k}", generate(k, random_config(k))) for k in range(40)]
    programs += sorted(RACES.items())
    total = hashlib.sha256()
    for name, source in programs:
        try:
            facts = oracle_facts(run_oracle(icfa_of(source), max_states=2_000))
        except OracleUnsupported:
            facts = "unsupported"
        total.update(f"# {name}\n{json.dumps(facts, sort_keys=True)}\n".encode())
    assert total.hexdigest() == CORPUS_FACTS_SHA256


def test_every_memory_dict_equals_its_frozen_memory(monkeypatch):
    # A step hands its successor the memory as a dict next to the frozenset;
    # the steps read the dict, so it must be the same memory, kills included.
    checked = []
    expand = Oracle._expand

    def checked_expand(self, state, path, skip, mem=None):
        if mem is not None:
            assert mem == dict(state[1])
            checked.append(state)
        succs = expand(self, state, path, skip, mem)
        for _, _, s2, _, mem2 in succs:
            assert mem2 == dict(s2[1])
        return succs

    monkeypatch.setattr(Oracle, "_expand", checked_expand)
    sources = [load(name) for name in FIXTURE_PROGRAMS]
    sources += list(RACES.values()) + list(UB_PROGRAMS.values())
    for src in sources:
        run_oracle(icfa_of(src), max_states=5_000)
    assert len(checked) >= 1000


# Programs whose state spaces have cycles: a thread that spins comes back
# to a state it left. Not in RACES, so CORPUS_FACTS_SHA256 does not cover
# them.
CYCLIC = {
    "spin-then-invert": """
mutex a; mutex b;
int flag;
int spinner(int x) {
    while (flag == 0) { lock(&a); unlock(&a); }
    lock(&a); lock(&b); unlock(&b); unlock(&a);
    return 0;
}
int main() {
    thread_t t;
    create(&t, spinner, 0);
    lock(&a); flag = 1; unlock(&a);
    lock(&b); lock(&a); unlock(&a); unlock(&b);
    join(t);
    return 0;
}
""",
    "turn-taking": """
mutex m;
int turn;
int player(int me) {
    int i; int mine;
    i = 0;
    while (i < 2) {
        mine = 0;
        while (mine == 0) {
            lock(&m);
            if (turn == me) { mine = 1; turn = 1 - me; }
            unlock(&m);
        }
        i = i + 1;
    }
    return 0;
}
int main() {
    thread_t t1; thread_t t2;
    create(&t1, player, 0); create(&t2, player, 1);
    join(t1); join(t2);
    return 0;
}
""",
}


def plain_search(icfa, limit: int):
    """The oracle's result from a DFS without sleep sets, depth bound or
    schedules: every thread is stepped from every state, and each new state
    is recorded whole. None when there are more than limit states."""
    oracle = Oracle(icfa)
    s0 = oracle._initial_state()
    oracle._record_state(s0)
    seen = {s0}
    stack = [iter(oracle._expand(s0, [], 0))]
    while stack:
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            continue
        s2 = move[2]
        if s2 not in seen:
            if len(seen) >= limit:
                return None
            seen.add(s2)
            oracle._record_state(s2)
            stack.append(iter(oracle._expand(s2, [], 0)))
    oracle.res.states = len(seen)
    return oracle.res


def search_facts(res) -> dict:
    """Every fact of an oracle run that does not depend on the schedules."""
    return {
        "states": res.states, "terminals": res.terminals,
        "ub_events": res.ub_events, "arrivals": res.arrivals,
        "copairs": res.copairs, "rw": res.rw,
        "rings": {frozenset((p, c) for _, p, c in w.cycle)
                  for w in res.witnesses},
    }


def test_sleep_sets_keep_every_fact_of_a_plain_search():
    programs = [(name, load(name)) for name in FIXTURE_PROGRAMS]
    programs += sorted(RACES.items()) + sorted(UB_PROGRAMS.items())
    programs += sorted(CYCLIC.items())
    programs += [(f"corpus-{k}", generate(k, random_config(k)))
                 for k in range(40)]
    compared = set()
    for name, source in programs:
        icfa = icfa_of(source)
        try:
            plain = plain_search(icfa, 5_000)
            if plain is None:
                continue
            res = run_oracle(icfa)
        except OracleUnsupported:
            continue
        assert not res.truncated, name
        assert search_facts(res) == search_facts(plain), name
        compared.add(name)
    assert set(CYCLIC) <= compared
    assert len(compared) >= 40
