import sys
from pathlib import Path

from checks import check_may_covers, check_must_subset
from conftest import FIXTURES, analyzed, icfa_of, load, shuffled_worklists
from lockhound.frontend.icfa import Edge, ThreadEntryOp
from lockhound.frontend.syntax import LockStmt, UnlockStmt, VarRef
from lockhound.generator import generate, random_config
from lockhound.framework import SolveResult
from lockhound.locksets import (
    LockOperands, MayLockset, MustLockset, context_free_operands, solve_locksets,
)
from lockhound.pipeline import Config, analyze_icfa, analyze_source
from lockhound.pointsto import STAR, TOP_STATE, GlobalObj, PointsToResult


class StubPt:
    """Points-to stand-in: one preset answer per query."""

    def __init__(self, answer):
        self.answer = answer

    def value_set(self, p, expr, at_sync=False):
        return self.answer


M1, M2 = GlobalObj("m1"), GlobalObj("m2")
ARG = VarRef("p")


def lock_edge():
    return Edge(0, 0, 1, LockStmt(ARG), 1)


def unlock_edge():
    return Edge(0, 0, 1, UnlockStmt(ARG), 1)


def test_may_transfer():
    may = MayLockset(StubPt(frozenset([M1])))
    assert may.transfer(lock_edge(), (0,), frozenset()) == {M1}
    assert may.transfer(unlock_edge(), (0,), frozenset([M1, M2])) == {M2}
    may = MayLockset(StubPt(STAR))
    assert may.transfer(lock_edge(), (0,), frozenset()) == {STAR}
    # ambiguous release keeps everything possibly held
    assert may.transfer(unlock_edge(), (0,), frozenset([M1, STAR])) == {M1, STAR}
    may = MayLockset(StubPt(frozenset([M1, M2])))
    assert may.transfer(unlock_edge(), (0,), frozenset([M1, M2])) == {M1, M2}
    te = Edge(0, 0, 1, ThreadEntryOp(VarRef("f"), ARG, "w::a"), 1)
    assert may.transfer(te, (0,), frozenset([M1])) == frozenset()


def test_must_transfer():
    must = MustLockset(StubPt(frozenset([M1])))
    assert must.transfer(lock_edge(), (0,), frozenset()) == {M1}
    assert must.transfer(unlock_edge(), (0,), frozenset([M1, M2])) == {M2}
    # ambiguous acquisition cannot be definitely held
    must = MustLockset(StubPt(frozenset([M1, M2])))
    assert must.transfer(lock_edge(), (0,), frozenset()) == frozenset()
    # ambiguous release removes everything it might hit
    assert must.transfer(unlock_edge(), (0,), frozenset([M1, M2])) == frozenset()
    must = MustLockset(StubPt(STAR))
    assert must.transfer(lock_edge(), (0,), frozenset()) == frozenset()
    assert must.transfer(unlock_edge(), (0,), frozenset([M1])) == frozenset()
    assert must.join(frozenset([M1, M2]), frozenset([M2])) == {M2}


def test_self_lock_report():
    must = MustLockset(StubPt(frozenset([M1])))
    out = must.transfer(lock_edge(), (7,), frozenset([M1]))
    assert out == {M1}
    (rep,) = must.self_locks
    assert rep.place == (7,) and rep.lock == M1
    # the same place is reported once
    must.transfer(lock_edge(), (7,), frozenset([M1]))
    assert len(must.self_locks) == 1


def locksets_by_line(a):
    """(may, must) at the source of each lock/unlock edge, keyed by line."""
    out = {}
    for p in a.locks.may.places.places():
        for e in a.icfa.out_edges[p[-1]]:
            if isinstance(e.op, (LockStmt, UnlockStmt)):
                out[e.line] = (a.locks.may.at(p), a.locks.must.at(p))
    return out


def test_straight_line_sets():
    src = """
        mutex m1; mutex m2;
        int main() {
            lock(&m1);
            lock(&m2);
            unlock(&m2);
            unlock(&m1);
            return 0;
        }
    """
    a = analyze_source(src)
    by_line = locksets_by_line(a)
    assert by_line[4] == (frozenset(), frozenset())          # entering lock(&m1)
    assert by_line[5] == (frozenset([M1]), frozenset([M1]))  # entering lock(&m2)
    assert by_line[6] == (frozenset([M1, M2]), frozenset([M1, M2]))
    assert by_line[7] == (frozenset([M1]), frozenset([M1]))


def test_branch_merge_may_union_must_intersection():
    src = """
        mutex m1; mutex m2;
        int g;
        int main() {
            if (g) { lock(&m1); }
            lock(&m2);
            unlock(&m2);
            if (g) { unlock(&m1); }
            return 0;
        }
    """
    a = analyze_source(src)
    by_line = locksets_by_line(a)
    may, must = by_line[6]  # entering lock(&m2) after the branch merge
    assert may == frozenset([M1])
    assert must == frozenset()
    may, must = by_line[7]  # entering unlock(&m2)
    assert may == frozenset([M1, M2])
    assert must == frozenset([M2])


def test_thread_starts_with_empty_sets():
    src = """
        mutex m1; mutex m2;
        int worker(int x) {
            lock(&m2);
            unlock(&m2);
            return 0;
        }
        int main() {
            thread_t t;
            lock(&m1);
            create(&t, worker, 0);
            join(t);
            unlock(&m1);
            return 0;
        }
    """
    a = analyze_source(src)
    by_line = locksets_by_line(a)
    # the worker's acquisition does not inherit main's held lock
    assert by_line[4] == (frozenset(), frozenset())
    assert by_line[5] == (frozenset([M2]), frozenset([M2]))
    # main still holds m1 at the final unlock
    assert by_line[13][0] == frozenset([M1])


def test_pipeline_self_lock_diagnostic():
    a = analyze_source("""
        mutex ma;
        int main() {
            lock(&ma);
            lock(&ma);
            unlock(&ma);
            unlock(&ma);
            return 0;
        }
    """)
    assert a.stats["self_locks"] == 1
    (rep,) = a.locks.must_client.self_locks
    assert rep.line == 5
    assert repr(rep.lock) == "ma"


def test_star_lock_sticks_in_may():
    src = """
        mutex ma;
        int x;
        int main() {
            mutex* p;
            p = x;
            lock(p);
            lock(&ma);
            unlock(&ma);
            unlock(p);
            return 0;
        }
    """
    a = analyze_source(src)
    by_line = locksets_by_line(a)
    may, must = by_line[8]  # entering lock(&ma)
    assert STAR in may
    assert must == frozenset()  # nothing is definitely held via p


def sets_by_place(locks):
    return tuple(dict(zip(s.places.by_id, s.state))
                 for s in (locks.may, locks.must))


def shuffled_locksets(icfa, pt, seed):
    with shuffled_worklists(seed):
        return solve_locksets(icfa, pt)


def test_solver_results_order_independent(showcase_icfa):
    a = analyze_icfa(showcase_icfa)
    base = sets_by_place(a.locks)
    for seed in (3, 11):
        shuffled = shuffled_locksets(showcase_icfa, a.pt, seed)
        assert sets_by_place(shuffled) == base


def test_order_independence_on_corpus():
    for seed in range(15):
        icfa = icfa_of(generate(seed, random_config(seed)))
        a = analyze_icfa(icfa)
        other = shuffled_locksets(icfa, a.pt, seed + 99)
        assert sets_by_place(other) == sets_by_place(a.locks), f"seed {seed}"


def test_soundness_against_oracle_fixtures():
    for name in ("showcase.mc", "wrapper_ok.mc", "mutant_nogate.mc",
                 "mutant_heap.mc", "mutant_ring.mc"):
        from conftest import load
        a, res = analyzed(load(name))
        assert res is not None
        assert check_may_covers(a, res) == [], name
        assert check_must_subset(a, res) == [], name


def test_soundness_against_oracle_corpus():
    checked = 0
    for seed in range(25):
        src = generate(seed, random_config(seed))
        a, res = analyzed(src)
        if res is None:
            continue
        assert check_may_covers(a, res) == [], f"seed {seed}"
        assert check_must_subset(a, res) == [], f"seed {seed}"
        checked += 1
    assert checked >= 15


def bench_sources():
    """The scaled tier 200-215 and the diamond ladder of bench/workloads.py."""
    sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import SCALED_CONFIG, diamond

    return ([generate(k, SCALED_CONFIG) for k in range(200, 216)]
            + [p.source for p in diamond(0)])


def test_one_sync_edge_per_location():
    # LockOperands keys a lock/unlock operand by place alone
    sources = [load(f.name) for f in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(k, random_config(k)) for k in range(500)]
    for src in sources + bench_sources():
        icfa = icfa_of(src)
        for loc, edges in icfa.out_edges.items():
            assert sum(isinstance(e.op, (LockStmt, UnlockStmt)) for e in edges) <= 1, loc


# Under no_depend the store through pp, an int made a pointer, is kept:
# it sets every points-to context to TOP_STATE, where even &m0 reads as *.
TOP_CONTEXT = """
mutex m0;
mutex m1;
int main() {
    int laundry;
    mutex *q;
    mutex **pp;
    laundry = &q;
    pp = laundry;
    *pp = &m1;
    lock(&m0);
    unlock(&m0);
    return 0;
}
"""


def test_shared_operand_is_the_value_set():
    # LockOperands answers for every sync place what points-to does, also
    # where it keys an &v operand by its location alone
    sources = [load(f.name) for f in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(k, random_config(k)) for k in range(100)]
    configs = [Config(), Config(ctx_insensitive=True), Config(no_depend=True)]
    for src in sources + [TOP_CONTEXT]:
        icfa = icfa_of(src)
        for cfg in configs:
            a = analyze_icfa(icfa, cfg)
            for p in a.locks.may.places.places():
                for e in a.icfa.out_edges[p[-1]]:
                    if isinstance(e.op, (LockStmt, UnlockStmt)):
                        assert a.locks.operands.at(p, e) == a.pt.value_set(
                            p, e.op.arg, at_sync=True), (cfg, e, p)
    a = analyze_source(TOP_CONTEXT, Config(no_depend=True))
    (_, p, e), = a.locks.lock_places
    assert a.locks.operands.at(p, e) is STAR


def test_operand_in_a_top_context_is_star():
    # The pipeline spreads TOP_STATE to every context it reaches, so mix the
    # contexts by hand: take()'s second context alone reads everything as *
    a = analyze_source("""
mutex m0;
void take() { lock(&m0); unlock(&m0); }
int main() { take(); take(); return 0; }
""")
    fi = a.pt.solve
    contexts = [pid for pid, ctx in enumerate(fi.places.places()) if len(ctx) > 1]
    assert len(contexts) == 2
    states = list(fi.state)
    states[contexts[1]] = TOP_STATE
    pt = PointsToResult(a.icfa, a.pt.model,
                        SolveResult(fi.places, fi.fpm, states, fi.steps))
    operands = LockOperands(pt, context_free_operands(a.icfa, pt))
    answers = set()
    for p in a.locks.may.places.places():
        for e in a.icfa.out_edges[p[-1]]:
            if isinstance(e.op, (LockStmt, UnlockStmt)):
                answers.add(operands.at(p, e))
                assert operands.at(p, e) == pt.value_set(p, e.op.arg, at_sync=True)
    assert answers == {frozenset([GlobalObj("m0")]), STAR}
