from checks import check_depend_complete, semantic_depend_edges
from conftest import analyzed, icfa_of, load
from lockhound.depend import affecting_edges, seed_symbols
from lockhound.frontend.syntax import Assign
from lockhound.generator import generate, random_config
from lockhound.pipeline import Config, analyze_source


def test_seed_symbols():
    icfa = icfa_of("""
        mutex ma;
        mutex* p;
        int r;
        int worker(int a) { lock(&ma); unlock(&ma); return 0; }
        int main() {
            thread_t t;
            p = &ma;
            lock(p);
            unlock(p);
            create(&t, worker, 0);
            r = join(t);
            return 0;
        }
    """)
    by_op = {}
    for e in icfa.edges:
        by_op.setdefault(type(e.op).__name__, []).append(e.op)
    assert seed_symbols(by_op["LockStmt"][-1]) == {"p"}
    assert seed_symbols(by_op["UnlockStmt"][-1]) == {"p"}
    assert seed_symbols(by_op["CreateStmt"][0]) == {"main::t"}
    assert seed_symbols(by_op["JoinStmt"][0]) == {"main::t", "r"}
    assert seed_symbols(by_op["Assign"][0]) == set()


def test_closure_follows_chains():
    icfa = icfa_of("""
        mutex ma;
        int unrelated;
        int main() {
            mutex* a;
            mutex* b;
            int z;
            z = 1;
            unrelated = z;
            a = &ma;
            b = a;
            lock(b);
            unlock(b);
            return 0;
        }
    """)
    dep = affecting_edges(icfa)
    assert {"main::a", "main::b", "ma"} <= dep.symbols
    assert "unrelated" not in dep.symbols
    kept = {repr(icfa.edges[i].op) for i in dep.edges
            if isinstance(icfa.edges[i].op, Assign)}
    assert any("ma" in s for s in kept)
    assert not any("unrelated" in s for s in kept)


def test_function_closure_reaches_lock_holders():
    icfa = icfa_of("""
        mutex ma;
        void depth2() { lock(&ma); unlock(&ma); }
        void depth1() { depth2(); }
        void silent() { int k; k = 3; }
        int main() { depth1(); silent(); return 0; }
    """)
    dep = affecting_edges(icfa)
    assert {"main", "depth1", "depth2"} <= dep.functions
    assert "silent" not in dep.functions
    assert dep.stats["functions_significant"] == 3


def test_stats_shape(showcase_icfa):
    dep = affecting_edges(showcase_icfa)
    st = dep.stats
    assert st["edges_significant"] <= st["edges_total"]
    assert 0.0 <= st["assign_fraction"] <= 1.0
    assert st["functions_significant"] <= st["functions_total"]


def test_semantic_edges_covered_on_fixtures():
    for name in ("showcase.mc", "wrapper_ok.mc", "mutant_heap.mc",
                 "mutant_wrapper.mc", "mutant_nogate.mc"):
        a, res = analyzed(load(name))
        assert res is not None
        assert check_depend_complete(a, res) == []
        sem = semantic_depend_edges(a, res)
        assert sem <= a.depend.edges


def test_semantic_edges_covered_on_corpus():
    checked = 0
    for seed in range(40):
        src = generate(seed, random_config(seed))
        a, res = analyzed(src)
        if res is None or res.truncated:
            continue
        assert check_depend_complete(a, res) == [], f"seed {seed}"
        checked += 1
    assert checked >= 20


def test_filter_cuts_binding_work_on_wrappers():
    # deep wrapper programs carry bookkeeping assignments the lock analysis
    # never needs; the filter should skip a good share of binding work
    src = """
        mutex ma; mutex mb;
        int counter;
        int log1; int log2;
        void note(int v) { log1 = v; log2 = v + 1; counter = counter + v; }
        void acquire(mutex* x, int who) { note(who); lock(x); note(who + 1); }
        void release(mutex* x, int who) { note(who); unlock(x); }
        int work(int a) {
            acquire(&ma, 1);
            acquire(&mb, 2);
            release(&mb, 3);
            release(&ma, 4);
            return 0;
        }
        int main() {
            thread_t t;
            create(&t, work, 0);
            acquire(&ma, 5);
            release(&ma, 6);
            join(t);
            return 0;
        }
    """
    with_dep = analyze_source(src)
    without = analyze_source(src, Config(no_depend=True))
    v1 = with_dep.stats["binding_applications"]
    v0 = without.stats["binding_applications"]
    assert v1 < v0
    assert (v0 - v1) / v0 >= 0.2
    assert with_dep.verdict == without.verdict


def test_filter_preserves_lock_value_sets():
    for seed in range(30):
        src = generate(seed, random_config(seed))
        base = analyze_source(src, Config(no_depend=True))
        filt = analyze_source(src)
        assert lock_values(base) == lock_values(filt), f"seed {seed}"


def lock_values(a):
    from lockhound.frontend.syntax import LockStmt, UnlockStmt
    from lockhound.pointsto import STAR
    out = {}
    may = a.locks.may
    for p in may.places.by_id:
        for e in a.icfa.out_edges[p[-1]]:
            if isinstance(e.op, (LockStmt, UnlockStmt)):
                vs = a.pt.value_set(p, e.op.arg, at_sync=True)
                key = (p, e.idx)
                out[key] = "*" if vs is STAR else frozenset(map(repr, vs))
    return out
