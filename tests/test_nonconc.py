import itertools
import random
from types import SimpleNamespace

import pytest

from checks import check_all, check_nonconc
from conftest import FIXTURES, SCALED, analyzed, icfa_of, load, oracle_of
from lockhound.cli import main
from lockhound.frontend.icfa import ICFA, FuncEntryOp, FuncInfo, SkipOp
from lockhound.frontend.syntax import LockStmt, UnlockStmt
from lockhound.generator import generate, random_config
from lockhound.nonconc import (
    CREATE_JOIN, GATELOCK, GraphFacts, NonConcurrency, SINGLE_THREAD,
    UNREACHED,
)
from lockhound.pipeline import analyze_icfa


def facts(n: int, edges) -> GraphFacts:
    """GraphFacts of a one-function automaton: edges over locations 0..n-1,
    entry 0, and an isolated exit n, so the local graph is exactly edges."""
    icfa = ICFA(SimpleNamespace(entry="f"))
    for _ in range(n + 1):
        icfa.new_loc("f")
    for s, t in edges:
        icfa.add_edge(s, t, SkipOp())
    icfa.functions["f"] = FuncInfo("f", 0, n, (), None)
    return GraphFacts(icfa)


def test_reachability_and_dominators():
    # diamond with a tail: 0 -> {1,2} -> 3 -> 4
    g = facts(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    assert g.has_path(0, 4)
    assert not g.has_path(4, 0)
    assert g.on_all_paths(0, 3, 4)       # 3 dominates 4
    assert not g.on_all_paths(0, 1, 4)   # the 2-branch avoids 1
    assert not g.on_all_paths(0, 4, 3)   # 4 is behind 3
    # vacuous: no path from 0 to an isolated target
    g2 = facts(3, [(0, 1)])
    assert g2.on_all_paths(0, 1, 2)
    assert not g2.on_all_paths(0, 2, 1)  # 2 is never reached at all

    # brute force on random digraphs: b is on every path a ->* c exactly
    # when removing b cuts c off from a
    def reachable(edges, a, removed=None):
        seen, stack = {a}, [a]
        while stack:
            n = stack.pop()
            for s, t in edges:
                if s == n and t != removed and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n))]
        g = facts(n, edges)
        for a in range(n):
            reach = reachable(edges, a)
            for b in range(n):
                cut = reachable(edges, a, removed=b)
                for c in range(n):
                    expect = b in reach and (
                        c not in reach or b in (a, c) or c not in cut)
                    assert g.on_all_paths(a, b, c) == expect, (edges, a, b, c)
                # b is on every cycle through a when no edge out of a
                # leads back to a around b
                dodge = any(a in reachable(edges, t, removed=b)
                            for s, t in edges if s == a and t != b)
                assert g.on_all_cycles(a, b) == (a == b or not dodge), \
                    (edges, a, b)


def test_on_all_cycles():
    # two loops through 0: only one goes through 1
    g = facts(4, [(0, 1), (1, 0), (0, 2), (2, 0)])
    assert not g.on_all_cycles(0, 1)
    g = facts(3, [(0, 1), (1, 0), (1, 2)])
    assert g.on_all_cycles(0, 1)
    assert g.on_all_cycles(0, 0)
    # a self-loop dodges everything else
    g = facts(2, [(0, 0), (0, 1)])
    assert not g.on_all_cycles(0, 1)


def test_in_loop():
    g = facts(4, [(0, 1), (1, 2), (2, 1), (1, 3)])
    assert not g.in_loop(0)
    assert g.in_loop(1) and g.in_loop(2)
    assert not g.in_loop(3)
    g = facts(2, [(0, 0), (0, 1)])
    assert g.in_loop(0)
    assert not g.in_loop(1)


def loc_at(icfa, line: int, op=LockStmt) -> int:
    """The location of the statement of type op on a source line."""
    return next(e.src for e in icfa.edges
                if isinstance(e.op, op) and e.line == line)


REENTRY_SRC = """
    mutex m;
    int f(int x) {
        lock(&m);
        unlock(&m);
        return 0;
    }
    int main() {
        int k;
        k = 0;
        CALLS
        return 0;
    }
"""
ONCE = "f(k);"
LOOPED = "while (k < 2) { f(k); k = k + 1; }"


@pytest.mark.parametrize("calls", [ONCE, LOOPED], ids=["once", "looped"])
def test_local_graph_reenters_a_function_called_from_a_loop(calls):
    # exit(f) -> entry(f) only when f can run again after it returns
    icfa = icfa_of(REENTRY_SRC.replace("CALLS", calls))
    g = GraphFacts(icfa)
    locked, unlocked = loc_at(icfa, 4), loc_at(icfa, 5, UnlockStmt)
    assert g.has_path(locked, unlocked)
    assert g.has_path(unlocked, locked) == (calls == LOOPED)
    assert g.on_all_cycles(locked, unlocked)


def test_local_graph_follows_recursion():
    icfa = icfa_of("""
        mutex m;
        int f(int x) {
            lock(&m);
            if (x > 0) {
                f(x - 1);
            }
            unlock(&m);
            return 0;
        }
        int main() {
            f(2);
            return 0;
        }
    """)
    g = GraphFacts(icfa)
    # call -> entry(f): the callee runs f's body again
    assert g.has_path(loc_at(icfa, 6, FuncEntryOp), loc_at(icfa, 4))
    # exit(f) -> return site: an inner frame returns into an outer one
    assert g.has_path(icfa.exit_of("f"), loc_at(icfa, 8, UnlockStmt))


def test_local_graph_keeps_the_path_past_a_callee_that_never_returns():
    icfa = icfa_of("""
        mutex m;
        int spin(int x) {
            spin(x);
            return 0;
        }
        int main() {
            spin(0);
            lock(&m);
            unlock(&m);
            return 0;
        }
    """)
    g = GraphFacts(icfa)
    site, locked = loc_at(icfa, 8, FuncEntryOp), loc_at(icfa, 9)
    # spin's exit is unreachable, but the summary edge keeps the path
    assert g.has_path(site, locked)
    assert g.on_all_paths(site, locked, loc_at(icfa, 10, UnlockStmt))


def test_cross_function_queries_are_conservative():
    icfa = icfa_of(REENTRY_SRC.replace("CALLS", LOOPED))
    g = GraphFacts(icfa)
    in_f, in_main = loc_at(icfa, 4), icfa.entry_of("main")
    assert g.has_path(in_f, in_main)  # no real path: main never runs again
    assert not g.on_all_paths(in_main, in_f, icfa.exit_of("main"))
    assert not g.on_all_cycles(in_f, in_main)


def nc_of(source: str):
    a = analyze_icfa(icfa_of(source))
    return a, a.nonconc


GATE_SRC = """
    mutex g; mutex m1; mutex m2;
    int worker(int x) {
        lock(&g);
        lock(&m1);
        lock(&m2);
        unlock(&m2);
        unlock(&m1);
        unlock(&g);
        return 0;
    }
    int main() {
        thread_t t;
        create(&t, worker, 0);
        lock(&g);
        lock(&m2);
        unlock(&m2);
        unlock(&g);
        join(t);
        return 0;
    }
"""


def test_gatelock_reason():
    a, nc = nc_of(GATE_SRC)
    icfa = a.icfa
    (site,) = icfa.create_sites
    inner_w = (site, loc_at(icfa, 6))    # worker at lock(&m2), holds g,m1
    inner_m = (loc_at(icfa, 16),)        # main at lock(&m2), holds g
    assert nc.check(inner_w, inner_m) == GATELOCK
    # entering lock(&g) itself is unprotected on both sides
    outer_w = (site, loc_at(icfa, 4))
    outer_m = (loc_at(icfa, 15),)
    assert nc.check(outer_w, outer_m) is None


JOIN_SRC = """
    mutex ma;
    int worker(int x) {
        lock(&ma);
        unlock(&ma);
        return 0;
    }
    int main() {
        thread_t t;
        create(&t, worker, 0);
        join(t);
        lock(&ma);
        unlock(&ma);
        return 0;
    }
"""


def test_create_join_reason():
    a, nc = nc_of(JOIN_SRC)
    icfa = a.icfa
    (site,) = icfa.create_sites
    in_worker = (site, loc_at(icfa, 4))
    after_join = (loc_at(icfa, 12),)
    assert nc.check(in_worker, after_join) == CREATE_JOIN
    # symmetric and memoized
    assert nc.check(after_join, in_worker) == CREATE_JOIN
    assert nc.check(in_worker, after_join) is not None


COND_JOIN_SRC = """
    mutex ma;
    int g;
    int worker(int x) {
        lock(&ma);
        unlock(&ma);
        return 0;
    }
    int main() {
        thread_t t;
        create(&t, worker, 0);
        if (g == 1) { join(t); }
        lock(&ma);
        unlock(&ma);
        return 0;
    }
"""


def test_conditional_join_is_not_proof():
    a, nc = nc_of(COND_JOIN_SRC)
    icfa = a.icfa
    (site,) = icfa.create_sites
    in_worker = (site, loc_at(icfa, 5))
    after_if = (loc_at(icfa, 13),)
    assert nc.check(in_worker, after_if) is None


def test_join_statement_itself_is_concurrent_with_thread(showcase_icfa):
    # while one occupant sits at the join, the other thread may still run
    a = analyze_icfa(showcase_icfa)
    nc = a.nonconc
    assert nc.check((18, 0), (25,)) is None
    # one step later the join has completed
    assert nc.check((18, 0), (26,)) == CREATE_JOIN


def test_same_thread_reasons(showcase_icfa):
    a = analyze_icfa(showcase_icfa)
    nc = a.nonconc
    # two main-thread places: a single control flow occupies one at a time
    assert nc.check((19,), (27,)) == SINGLE_THREAD
    # two places of the once-created worker
    assert nc.check((18, 0), (18, 11)) == SINGLE_THREAD
    assert not nc.multiple_thread((18,))


def test_loop_created_thread_may_pair_with_itself():
    src = load("mutant_loop_create.mc")
    a = analyze_icfa(icfa_of(src))
    nc = a.nonconc
    (site,) = a.icfa.create_sites
    assert nc.multiple_thread((site,))
    locs = sorted({e.src for e in a.icfa.edges if isinstance(e.op, LockStmt)
                   and a.icfa.func_of(e.src) != "main"})
    p1, p2 = (site, locs[0]), (site, locs[1])
    assert nc.check(p1, p2) is None


NESTED_CREATE_SRC = """
    mutex ma;
    mutex mb;
    int inner(int x) {
        lock(&ma);
        lock(&mb);
        unlock(&mb);
        unlock(&ma);
        return 0;
    }
    int worker(int a) {
        thread_t t2;
        if (a == 0) {
            create(&t2, inner, 0);
        } else {
            lock(&mb);
            lock(&ma);
            unlock(&ma);
            unlock(&mb);
        }
        return 0;
    }
    int main() {
        thread_t t;
        int k;
        k = 0;
        while (k < 2) {
            create(&t, worker, k);
            k = k + 1;
        }
        return 0;
    }
"""


def test_places_under_a_loop_created_ancestor_may_overlap(tmp_path):
    # worker 0 runs inner while worker 1 takes mb then ma: two instances
    # of the common ancestor thread hold the two places at once
    a, res = analyzed(NESTED_CREATE_SRC)
    assert res.witnesses and not res.truncated
    assert check_all(a, res) == []
    path = tmp_path / "nested_create.mc"
    path.write_text(NESTED_CREATE_SRC)
    assert main(["analyze", str(path)]) == 1


def test_unreached_place(showcase_icfa):
    a = analyze_icfa(showcase_icfa)
    assert a.nonconc.check((0,), (20,)) == UNREACHED


def test_showcase_prunes_use_both_arguments(showcase_source):
    a, _ = analyzed(showcase_source)
    reasons = sorted(c.pruned_by for c in a.search.cycles)
    assert reasons == [CREATE_JOIN, GATELOCK]


def test_sound_against_oracle_fixtures():
    for name in ("showcase.mc", "wrapper_ok.mc", "mutant_nogate.mc",
                 "mutant_nojoin.mc", "mutant_branch_join.mc",
                 "mutant_loop_create.mc", "mutant_double.mc"):
        a, res = analyzed(load(name))
        assert res is not None, name
        assert check_nonconc(a, res) == [], name


def test_sound_against_oracle_corpus():
    checked = 0
    for seed in range(25):
        src = generate(seed, random_config(seed))
        a, res = analyzed(src)
        if res is None:
            continue
        assert check_nonconc(a, res, limit=400) == [], f"seed {seed}"
        checked += 1
    assert checked >= 15


def test_lock_edge_copairs_are_never_pruned():
    # every co-occupied pair of lock-acquiring places, with no pair limit
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed))
                for seed in (*range(40), 119, 189)]
    checked = 0
    for src in sources:
        res = oracle_of(src)
        if res is None:
            continue
        a = analyze_icfa(icfa_of(src))
        at_lock = {e.place for e in a.lock_edges}
        for p1, p2 in res.copairs:
            if p1 in at_lock and p2 in at_lock:
                assert a.nonconc.check(p1, p2) is None, (p1, p2)
                checked += 1
    assert checked > 0


def test_check_order_does_not_change_answers():
    # Both caches (the place-pair memo and the per-location-pair join
    # cover) must give the same reasons whatever order pairs are asked in.
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(seed, random_config(seed)) for seed in range(60)]
    sources += [generate(seed, SCALED) for seed in (200, 201, 205)]
    for src in sources:
        a = analyze_icfa(icfa_of(src))
        places = sorted({e.place for e in a.lock_edges})
        pairs = list(itertools.combinations(places, 2))
        nc = NonConcurrency(a.icfa, a.locks, a.pt)
        forward = {(p, q): nc.check(p, q) for p, q in pairs}
        nc = NonConcurrency(a.icfa, a.locks, a.pt)
        backward = {(p, q): nc.check(q, p) for p, q in reversed(pairs)}
        assert forward == backward
