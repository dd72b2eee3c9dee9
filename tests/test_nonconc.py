import itertools
import random
from types import SimpleNamespace

from checks import check_nonconc
from conftest import FIXTURES, SCALED, analyzed, icfa_of, load
from lockhound.generator import generate, random_config
from lockhound.nonconc import (
    CREATE_JOIN, GATELOCK, GraphFacts, NonConcurrency, SINGLE_THREAD,
    UNREACHED,
)
from lockhound.pipeline import analyze_icfa


def facts(n: int, edges) -> GraphFacts:
    fake = SimpleNamespace(
        locations=[SimpleNamespace(id=i) for i in range(n)],
        edges=[SimpleNamespace(src=s, tgt=t, op=None) for s, t in edges],
    )
    return GraphFacts(fake)


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


def lock_loc(icfa, line: int) -> int:
    from lockhound.frontend.icfa import LockOp
    return next(e.src for e in icfa.edges
                if isinstance(e.op, LockOp) and e.line == line)


def test_gatelock_reason():
    a, nc = nc_of(GATE_SRC)
    icfa = a.icfa
    (site,) = icfa.create_sites
    inner_w = (site, lock_loc(icfa, 6))    # worker at lock(&m2), holds g,m1
    inner_m = (lock_loc(icfa, 16),)        # main at lock(&m2), holds g
    assert nc.check(inner_w, inner_m) == GATELOCK
    # entering lock(&g) itself is unprotected on both sides
    outer_w = (site, lock_loc(icfa, 4))
    outer_m = (lock_loc(icfa, 15),)
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
    in_worker = (site, lock_loc(icfa, 4))
    after_join = (lock_loc(icfa, 12),)
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
    in_worker = (site, lock_loc(icfa, 5))
    after_if = (lock_loc(icfa, 13),)
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
    from lockhound.frontend.icfa import LockOp
    locs = sorted({e.src for e in a.icfa.edges if isinstance(e.op, LockOp)
                   and a.icfa.func_of(e.src) != "main"})
    p1, p2 = (site, locs[0]), (site, locs[1])
    assert nc.check(p1, p2) is None


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
