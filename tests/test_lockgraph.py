"""Lock-order graph construction, STAR closure, and cycle reporting."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import networkx as nx

from checks import check_deadlocks_reported
from conftest import SCALED, analyzed, close_triples, icfa_of, load, \
    triple_locks
from lockhound import lockgraph
from lockhound.generator import generate, random_config
from lockhound.lockgraph import (
    CycleSearch,
    LockEdge,
    close_lock_edges,
    enumerate_cycles,
    filter_cycles,
    lockgraph_dot,
)
from lockhound.oracle import run_oracle
from lockhound.pipeline import (
    INCONCLUSIVE, POTENTIAL, PROVED_FREE, Config, analyze_icfa,
)
from lockhound.pointsto import STAR, AllocObj, GlobalObj, obj_key, obj_label

A, B, C = GlobalObj("a"), GlobalObj("b"), GlobalObj("c")
P, Q = ("p",), ("q",)


def edge(held, acquired, place=P, line=1) -> LockEdge:
    return LockEdge(held, place, acquired, line)


def label_pairs(edges):
    return Counter((obj_label(e.held), obj_label(e.acquired)) for e in edges)


def searched(edges, cap=2000, nc=None) -> CycleSearch:
    """The pipeline's cycle search over the edges, run to its end."""
    search = enumerate_cycles(edges, cap)
    filter_cycles(search, nc)
    return search


# ------------------------------------------------------------ built graph


def test_showcase_lock_graph_edges(showcase_icfa):
    a = analyze_icfa(showcase_icfa)
    assert len(a.lock_edges) == 8
    assert label_pairs(a.lock_edges) == Counter({
        ("m1", "m2"): 2,   # thread1 and main both order m1 before m2
        ("m1", "m3"): 2,
        ("m2", "m3"): 1,
        ("m3", "m2"): 1,
        ("m4", "m5"): 1,
        ("m5", "m4"): 1,
    })
    assert a.verdict == PROVED_FREE
    assert sorted(c.pruned_by for c in a.search.cycles) == [
        "create_join", "gatelock"]
    assert {frozenset(c.locks) for c in a.search.cycles} == {
        frozenset({"m2", "m3"}), frozenset({"m4", "m5"})}


# ------------------------------------------------------------ triple closure


def test_cl_star_tail_expands_to_every_lock():
    L = frozenset({("a", P, STAR), ("b", Q, "c")})
    assert close_triples(L) == frozenset({
        ("a", P, STAR), ("b", Q, "c"),
        ("a", P, "a"), ("a", P, "b"), ("a", P, "c"),
    })


def test_cl_star_head_expands_to_every_lock():
    L = frozenset({(STAR, P, "a"), ("b", Q, "c")})
    assert close_triples(L) == frozenset({
        (STAR, P, "a"), ("b", Q, "c"),
        ("a", P, "a"), ("b", P, "a"), ("c", P, "a"),
    })


def test_cl_both_star_expands_to_all_pairs():
    L = frozenset({(STAR, P, STAR), ("a", Q, "b")})
    every = {"a", "b", STAR}
    assert close_triples(L) == frozenset(
        {(x, P, y) for x in every for y in every} | {("a", Q, "b")})


def _random_triples(rng, with_star=True):
    locks = ["a", "b", "c", "d"] + ([STAR] if with_star else [])
    places = [P, Q, ("r",)]
    n = rng.randint(1, 5)
    return frozenset(
        (rng.choice(locks), rng.choice(places), rng.choice(locks))
        for _ in range(n))


def test_cl_identity_without_star():
    rng = random.Random(11)
    for _ in range(200):
        s = _random_triples(rng, with_star=False)
        assert close_triples(s) == s


def test_cl_algebra():
    rng = random.Random(12)
    for _ in range(200):
        s = _random_triples(rng)
        closed = close_triples(s)
        assert s <= closed                       # extensive
        assert close_triples(closed) == closed   # idempotent
        assert triple_locks(closed) == triple_locks(s)  # no new locks
        t = s | _random_triples(rng)
        assert closed <= close_triples(t)        # monotone


def test_cl_two_edge_paths_cover_value_set_products():
    # Two acquisitions whose static value sets share at least one possible
    # lock must, after closure, be linkable by a two-edge path for every
    # choice of held/acquired lock: this is what makes cycle enumeration on
    # the closed graph sound when STAR stands in for unknown locks.
    rng = random.Random(13)
    universe = ["l0", "l1", "l2", "l3", "l4"]

    def concretize(ls):
        return set(universe) if STAR in ls else set(ls)

    done = 0
    while done < 500:
        sets = [frozenset(rng.sample(universe + [STAR], rng.randint(1, 3)))
                for _ in range(4)]
        ls1, ls2, ls3, ls4 = sets
        if not (concretize(ls2) & concretize(ls3)):
            continue  # the acquisitions cannot be the same lock
        done += 1
        L = frozenset({(a, P, b) for a in ls1 for b in ls2}
                      | {(a, Q, b) for a in ls3 for b in ls4})
        closed = close_triples(L)
        linkers = triple_locks(L) | {STAR}
        for l1 in ls1:
            for l2 in ls4:
                assert any((l1, P, x) in closed and (x, Q, l2) in closed
                           for x in linkers), (ls1, ls2, ls3, ls4, l1, l2)


# ------------------------------------------------------------ edge closure


def test_close_lock_edges_spawns_concrete_variants():
    raw = [edge(A, STAR, place=P, line=3), edge(B, A, place=Q, line=9)]
    closed = close_lock_edges(raw)
    assert closed[:2] == raw  # originals first, untouched
    spawned = closed[2:]
    assert all(e.place == P and e.line == 3 for e in spawned)
    assert label_pairs(spawned) == Counter({("a", "a"): 1, ("a", "b"): 1})
    keys = [(obj_label(e.held), e.place, obj_label(e.acquired))
            for e in closed]
    assert len(keys) == len(set(keys))  # no duplicates


def test_close_lock_edges_identity_without_star(showcase_icfa):
    a = analyze_icfa(showcase_icfa)
    assert close_lock_edges(a.lock_edges) == a.lock_edges


def test_closure_lets_star_cycle_surface():
    raw = [edge(A, STAR, place=P, line=3), edge(B, A, place=Q, line=9)]
    assert searched(raw).cycles == []  # a->*, b->a: no raw cycle
    search = searched(close_lock_edges(raw))
    assert len(search.cycles) == 1
    assert sorted(search.cycles[0].locks) == ["a", "b"]
    assert {e.place for e in search.cycles[0].edges} == {P, Q}


STAR_CYCLE_SRC = """
mutex m1;
mutex m2;

int t1(int x) {
  lock(&m2);
  lock(&m1);
  unlock(&m1);
  unlock(&m2);
  return 0;
}

int main() {
  thread_t t;
  create(&t, t1, 0);
  lock(&m1);
  mutex* p;
  lock(p);
  unlock(p);
  unlock(&m1);
  join(t);
  return 0;
}
"""


def test_star_cycle_reported_end_to_end():
    # Main acquires an unresolved lock while holding m1; the thread orders
    # m2 before m1. The raw graph is acyclic (the unresolved node has no
    # outgoing edge), so only the closure exposes the m1/m2 reversal.
    a = analyze_icfa(icfa_of(STAR_CYCLE_SRC))
    assert a.verdict == POTENTIAL
    assert any(frozenset(c.locks) == frozenset({"m1", "m2"})
               for c in a.reported_cycles())
    # Reported edges stay raw: two of them, one with the unresolved target.
    assert len(a.lock_edges) == 2
    assert "*" in {obj_label(e.acquired) for e in a.lock_edges}
    # Without the closure the candidate is invisible.
    assert searched(a.lock_edges).cycles == []


# A global named alloc6 and the heap mutex allocated at location 6 share the
# label "alloc6". The thread orders alloc6 before m, main orders m before the
# heap mutex: two different locks, so no cycle.
LABEL_CLASH_SRC = """
mutex alloc6;
mutex m;

int w(int a) {
  lock(&alloc6);
  lock(&m);
  unlock(&m);
  unlock(&alloc6);
  return 0;
}

int main() {
  mutex* p;
  thread_t t;
  p = malloc(mutex);
  create(&t, w, 0);
  lock(&m);
  lock(p);
  unlock(p);
  unlock(&m);
  join(t);
  return 0;
}
"""


def test_locks_sharing_a_label_stay_apart():
    icfa = icfa_of(LABEL_CLASH_SRC)
    a = analyze_icfa(icfa)
    g6, m, heap = GlobalObj("alloc6"), GlobalObj("m"), AllocObj(6)
    assert obj_label(g6) == obj_label(heap)
    assert {(e.held, e.acquired) for e in a.lock_edges} == {(g6, m), (m, heap)}
    assert a.verdict == PROVED_FREE
    res = run_oracle(icfa)
    assert res.witnesses == [] and not res.truncated
    # The same two locks by hand: no cycle, and the closure keeps both.
    assert searched([edge(g6, m), edge(m, heap, place=Q)]).cycles == []
    closed = close_triples({(g6, P, STAR), (m, Q, heap)})
    assert {(g6, P, heap), (g6, P, g6)} <= closed


# The same clash in a real deadlock: the global alloc8 and the heap mutex
# allocated at location 8 are taken in opposite orders.
LABEL_CLASH_CYCLE_SRC = """
mutex alloc8;
mutex m;
mutex* q;

int w(int a) {
  lock(&alloc8);
  lock(q);
  unlock(q);
  lock(&m);
  unlock(&m);
  unlock(&alloc8);
  return 0;
}

int main() {
  thread_t t;
  q = malloc(mutex);
  create(&t, w, 0);
  lock(q);
  lock(&alloc8);
  unlock(&alloc8);
  unlock(q);
  lock(&m);
  lock(&alloc8);
  unlock(&alloc8);
  unlock(&m);
  join(t);
  return 0;
}
"""


def test_label_clash_cycle_reported_the_same_under_every_hash_seed(tmp_path):
    a, res = analyzed(LABEL_CLASH_CYCLE_SRC)
    assert AllocObj(8) in {e.acquired for e in a.lock_edges}
    assert res.witnesses and check_deadlocks_reported(a, res) == []
    prog = tmp_path / "clash.mc"
    prog.write_text(LABEL_CLASH_CYCLE_SRC)
    run = ("import sys; from lockhound.cli import main; "
           f"sys.exit(main(['analyze', {str(prog)!r}]))")
    reports = set()
    for seed in range(5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", run], env=env,
                             capture_output=True, text=True).stdout
        reports.add("".join(line for line in out.splitlines(True)
                            if not line.startswith("time:")))
    assert len(reports) == 1, reports
    # The two alloc8 locks print as two names, and the dot graph has no
    # self-loop for them.
    names = {name for c in a.reported_cycles() for name in c.locks}
    assert {"alloc8 (global)", "alloc8 (alloc)"} <= names
    (report,) = reports
    assert "holds alloc8 (alloc), wants alloc8 (global)" in report
    dot = lockgraph_dot(a.lock_edges)
    assert '"alloc8 (global)" -> "alloc8 (alloc)"' in dot
    assert '"alloc8" ' not in dot


# ------------------------------------------------------------ enumeration


class _FakeNC:
    """check() stand-in: the given unordered place pairs cannot overlap,
    each for its reason; every other pair can."""

    def __init__(self, apart):
        self.apart = {frozenset(pair): reason for pair, reason in apart.items()}
        self.asked = 0

    def check(self, p1, p2):
        self.asked += 1
        return self.apart.get(frozenset({p1, p2}))


def test_enumerate_parallel_edges_multiply():
    raw = [edge(A, B, place=("p2",), line=2),
           edge(A, B, place=("p1",), line=1),
           edge(B, A, place=Q, line=3)]
    # Nothing is searched until filter_cycles drains the node cycles.
    search = enumerate_cycles(raw)
    assert search.cycles == [] and search.combos_seen == 0
    filter_cycles(search, None)
    # One node cycle, from the smallest lock; its witness is the first
    # combination of the pools in line order.
    (cyc,) = search.cycles
    assert cyc.locks == ["b", "a"]
    assert [e.line for e in cyc.edges] == [1, 3]
    assert search.combos_seen == 1 and not search.truncated
    # The parallel edges multiply: when line 1 cannot overlap line 3, the
    # second combination is the witness.
    search = searched(raw, nc=_FakeNC({(("p1",), Q): "gatelock"}))
    (cyc,) = search.cycles
    assert [e.line for e in cyc.edges] == [2, 3]
    assert cyc.pruned_by is None and cyc.failed_pair is None
    assert search.combos_seen == 2


def test_enumerate_cap_truncates():
    raw = [edge(A, B, place=("p1",), line=1),
           edge(A, B, place=("p2",), line=2),
           edge(B, A, place=Q, line=3)]
    nc = _FakeNC({(("p1",), Q): "gatelock"})
    # The rejected first combination uses up the cap of one.
    search = searched(raw, cap=1, nc=nc)
    assert search.truncated
    assert search.combos_seen == 1
    assert search.cycles == []
    assert not searched(raw, cap=2, nc=nc).truncated
    # A cap of 0 stops at the first examined combination.
    search = searched(raw, cap=0)
    assert search.truncated and search.combos_seen == 0


def test_enumerate_skips_single_lock_loops():
    search = searched([edge(A, A, place=P, line=1)])
    assert search.cycles == []
    assert search.combos_seen == 0
    assert not search.truncated


def test_enumerate_orders_short_cycles_first():
    raw = [edge(A, B, line=1), edge(B, C, line=2), edge(C, A, line=3),
           edge(C, B, line=4)]
    search = searched(raw)
    sizes = [len(c.edges) for c in search.cycles]
    assert sizes == sorted(sizes)
    assert sizes[0] == 2 and sizes[-1] == 3
    assert sorted(search.cycles[0].locks) == ["b", "c"]


def reference_search(edges, apart):
    """Brute force over every node cycle's full product: the node cycles,
    rotated to their smallest node and sorted by (length, nodes), each with
    its product size, the combinations a search examines (each distinct
    shortest prefix that holds an apart pair, up to the first combination
    that holds none, which counts too) and the search's outcome: (None,
    None, that first pairwise-concurrent combination), or else (reason,
    the first combination's first apart pair in the order the search
    checks pairs, by later edge and then earlier, the first combination)."""
    locks = sorted({e.held for e in edges} | {e.acquired for e in edges},
                   key=obj_key)
    node = {lock: i for i, lock in enumerate(locks)}
    g = nx.DiGraph()
    parallel = {}
    for e in edges:
        leg = (node[e.held], node[e.acquired])
        g.add_edge(*leg)
        parallel.setdefault(leg, []).append(e)
    for es in parallel.values():
        es.sort(key=lambda e: (e.line, e.place))
    rotated = []
    for c in nx.simple_cycles(g):
        i = c.index(min(c))
        rotated.append(c[i:] + c[:i])
    rotated.sort(key=lambda c: (len(c), tuple(c)))
    out = []
    for c in rotated:
        if len(c) < 2:
            continue
        pools = [parallel[c[k], c[(k + 1) % len(c)]] for k in range(len(c))]
        size = 1
        for pool in pools:
            size *= len(pool)
        rejected, cuts = set(), []
        for combo in itertools.product(*pools):
            cut = next(((combo[i].place, combo[j].place, j)
                        for j in range(len(combo)) for i in range(j)
                        if frozenset({combo[i].place, combo[j].place})
                        in apart), None)
            if cut is None:
                outcome = (None, None, combo)
                break
            rejected.add(combo[:cut[2] + 1])
            cuts.append((combo, cut))
        else:  # pruned: the first combination's first apart pair
            combo, (p1, p2, _) = cuts[0]
            outcome = (apart[frozenset({p1, p2})], (p1, p2), combo)
        examined = len(rejected) + (outcome[0] is None)
        out.append((size, examined, outcome))
    return out


def test_search_matches_brute_force_reference():
    rng = random.Random(5)
    truncated = Counter()
    pruned = reported = 0
    for _ in range(300):
        locks = [GlobalObj(f"l{i}") for i in range(rng.randint(2, 6))]
        ends = locks + [STAR] if rng.random() < 0.3 else locks
        raw = {}
        for _ in range(rng.randint(1, 12)):
            e = LockEdge(rng.choice(ends), (rng.randint(0, 3),),
                         rng.choice(ends), rng.randint(1, 9))
            raw.setdefault((e.held, e.place, e.acquired), e)
        edges = close_lock_edges(list(raw.values()))
        # a random symmetric relation: these place pairs cannot overlap
        apart = {frozenset({(i,), (j,)}): rng.choice(("gatelock", "unreached"))
                 for i in range(4) for j in range(i, 4) if rng.random() < 0.4}
        ref = reference_search(edges, apart)
        full = sum(size for size, _, _ in ref)
        for cap in (2000, 50, 7, 1):
            search = searched(edges, cap, _FakeNC(apart))
            # every node cycle the search finished, in order, and each
            # reported exactly when its product has a concurrent combination
            got = [(c.pruned_by, c.failed_pair, c.edges)
                   for c in search.cycles]
            assert got == [outcome for _, _, outcome in ref[:len(got)]]
            assert search.combos_seen <= min(full, cap)
            assert search.truncated == (len(got) < len(ref))
            if full <= cap:
                assert not search.truncated
            # the cap counts exactly the examined combinations, and stops
            # the search inside the first node cycle that would pass it
            done = sum(examined for _, examined, _ in ref[:len(got)])
            if search.truncated:
                assert search.combos_seen == cap
                assert done <= cap < done + ref[len(got)][1]
            else:
                assert search.combos_seen == done
            truncated[cap] += search.truncated
            pruned += sum(c.pruned_by is not None for c in search.cycles)
            reported += sum(c.pruned_by is None for c in search.cycles)
    # the sample prunes, reports and reaches every cap but the largest
    assert pruned > 100 and reported > 100, (pruned, reported)
    assert truncated[1] > 100 and truncated[50] > 0, truncated


def test_cycle_cap_bounds_the_search(monkeypatch):
    # Seed 202's closed lock graph has about 1.27M elementary cycles, and
    # seed 240's search once exhausted 4 GB. Every node cycle costs at least
    # one examined combination, so each search stops at the cap after at
    # most cap + 1 node cycles.
    search = lockgraph.cycles
    cfg = Config()
    for seed in (202, 240):
        yielded = 0

        def counting(*args, **kw):
            nonlocal yielded
            for c in search(*args, **kw):
                yielded += 1
                yield c

        monkeypatch.setattr(lockgraph, "cycles", counting)
        a = analyze_icfa(icfa_of(generate(seed, SCALED)), cfg)
        assert a.search.truncated and a.search.combos_seen == cfg.cycle_cap
        assert 0 < yielded <= cfg.cycle_cap + 1, (seed, yielded)


def test_cycle_search_decides_the_scaled_tier():
    # Each node cycle costs the cap only the combinations its search
    # examines, so at the default cap 8 of the 14 scaled programs finish
    # (6 did while every combination of every node cycle counted), and so
    # do the two corpus programs that stopped at the cap.
    decided = []
    for seed in (k for k in range(200, 216) if k not in (202, 207)):
        a = analyze_icfa(icfa_of(generate(seed, SCALED)))
        if a.verdict != INCONCLUSIVE and not a.search.truncated:
            decided.append(seed)
    assert len(decided) >= 8, decided
    for seed in (187, 287):
        a = analyze_icfa(icfa_of(generate(seed, random_config(seed))))
        assert not a.search.truncated and a.verdict == POTENTIAL, seed


# ------------------------------------------------------------ pruning


def test_filter_cycles_marks_failed_pair():
    raw = [edge(A, B, place=P, line=1), edge(B, A, place=Q, line=2)]
    (cyc,) = searched(raw, nc=_FakeNC({(P, Q): "gatelock"})).cycles
    assert cyc.pruned_by == "gatelock"
    assert cyc.failed_pair == (P, Q)
    assert [e.line for e in cyc.edges] == [1, 2]

    raw = [edge(A, B, place=P, line=1), edge(B, A, place=("r",), line=2)]
    (kept,) = searched(raw, nc=_FakeNC({(P, Q): "gatelock"})).cycles
    assert kept.pruned_by is None and kept.failed_pair is None


def test_filter_cycles_prunes_partial_combinations():
    # a -> b -> c -> a with two edges on every leg: 8 combinations. Line 1
    # (place P) cannot overlap anything on the b -> c leg, so both of its
    # two-edge prefixes are rejected without trying their completions.
    R, S = ("r",), ("s",)
    raw = [edge(A, B, place=P, line=1), edge(A, B, place=Q, line=2),
           edge(B, C, place=R, line=3), edge(B, C, place=S, line=4),
           edge(C, A, place=R, line=5), edge(C, A, place=S, line=6)]
    nc = _FakeNC({(P, R): "gatelock", (P, S): "create_join"})
    search = searched(raw, nc=nc)
    (cyc,) = search.cycles
    assert cyc.pruned_by is None
    assert [e.line for e in cyc.edges] == [2, 3, 5]
    assert search.combos_seen == 3  # two rejected prefixes, one witness
    # Without line 2 every combination is cut off at its prefix.
    search = searched(raw[:1] + raw[2:], nc=nc)
    (cyc,) = search.cycles
    assert (cyc.pruned_by, cyc.failed_pair) == ("gatelock", (P, R))
    assert search.combos_seen == 2


def test_filter_cycles_without_nc_keeps_everything():
    raw = [edge(A, B, place=P, line=1), edge(B, A, place=Q, line=2)]
    (cyc,) = searched(raw, nc=None).cycles
    assert cyc.pruned_by is None


def _report_keys(a):
    # a witness may differ with and without pruning; its locks may not
    return Counter(tuple(c.locks) for c in a.reported_cycles())


def test_disabling_concurrency_pruning_only_adds_reports():
    sources = [load(n) for n in
               ("showcase.mc", "wrapper_ok.mc", "mutant_nogate.mc",
                "mutant_nojoin.mc", "mutant_double.mc")]
    sources += [generate(seed) for seed in range(20)]
    for src in sources:
        icfa = icfa_of(src)
        with_prune = _report_keys(analyze_icfa(icfa))
        without = _report_keys(analyze_icfa(icfa, Config(no_nonconc=True)))
        assert with_prune <= without


# ------------------------------------------------------------ dot output


def test_lockgraph_dot_shape():
    raw = [edge(A, STAR, place=P, line=3), edge(B, A, place=Q, line=9)]
    dot = lockgraph_dot(raw)
    assert dot.startswith("digraph lockgraph {")
    assert '"*" [label="*", style=dashed];' in dot
    assert '"a" -> "*" [label="line 3"];' in dot
    assert '"b" -> "a" [label="line 9"];' in dot
