import random
import sys
import tracemalloc
from collections import deque
from pathlib import Path
from typing import get_args

import pytest

from checks import check_all
from conftest import (
    ENTRY_OPS, EXIT_OPS, FIXTURES, INTER_OPS, analyzed, icfa_of, load,
    shuffled_worklists,
)
from lockhound.depend import affecting_edges
from lockhound.framework import (
    DIRTY, EMPTY_FPM, entry_place, explore, fi_context, fp_transfer, join_fp,
    match_fp, solve_fi, solve_fs, step_place,
)
from lockhound.frontend.icfa import (
    ENTRY, INTRA, RETURN, FuncEntryOp, FuncExitOp, Op, ThreadEntryOp,
)
from lockhound.frontend.syntax import Assign, FuncRef, VarRef, is_fnptr
from lockhound.generator import generate, random_config
from lockhound.locksets import MayLockset, MustLockset
from lockhound.pipeline import (
    POTENTIAL, PROVED_FREE, analyze_icfa, analyze_source,
)
from lockhound.places import PlaceMap
from lockhound.pointsto import ObjectModel, PointsToClient

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import diamond_source  # noqa: E402


def random_fpm(rng: random.Random) -> dict:
    names = ["f", "g", "h"]
    out = {}
    for v in ("a", "b", "c", "d"):
        r = rng.randrange(4)
        if r == 0:
            continue
        out[v] = DIRTY if r == 1 else names[r - 2]
    return out


def test_join_fp_algebra():
    # commutative, associative, idempotent; {} (all-unknown) absorbs
    rng = random.Random(2024)
    for _ in range(10_000):
        a, b, c = random_fpm(rng), random_fpm(rng), random_fpm(rng)
        ab = join_fp(a, b)
        assert ab == join_fp(b, a)
        assert join_fp(ab, c) == join_fp(a, join_fp(b, c))
        assert join_fp(a, a) == a
        assert join_fp(a, {}) == {}


def test_join_fp_cases():
    assert join_fp({"v": "f"}, {"v": "f"}) == {"v": "f"}
    assert join_fp({"v": "f"}, {"v": "g"}) == {"v": DIRTY}
    assert join_fp({"v": "f"}, {"v": DIRTY}) == {"v": DIRTY}
    # absence means "could be anything", so it wins over a tracked value
    assert join_fp({"v": "f"}, {}) == {}
    assert join_fp({"v": "f", "w": "g"}, {"w": "g"}) == {"w": "g"}


def test_join_fp_never_resurrects():
    # joining f, g, then g again must stay degraded, in any grouping
    f, g = {"v": "f"}, {"v": "g"}
    assert join_fp(join_fp(f, g), g) == {"v": DIRTY}
    assert join_fp(f, join_fp(g, g)) == {"v": DIRTY}


def test_match_fp():
    f = FuncRef("worker")
    assert match_fp({}, f, "worker")
    assert not match_fp({}, f, "other")
    v = VarRef("fp")
    assert match_fp({}, v, "worker")  # untracked: could be anything
    assert match_fp({"fp": "worker"}, v, "worker")
    assert not match_fp({"fp": "other"}, v, "worker")
    assert match_fp({"fp": DIRTY}, v, "worker")


RECURSIVE = """
int g;
void walk(int n) {
    if (g) { walk(n); }
}
void leaf() {
    g = 0;
}
int main() {
    walk(3);
    leaf();
    return 0;
}
"""


def test_entry_place_collapses_reentry(showcase_icfa):
    icfa = showcase_icfa
    f2 = icfa.entry_of("func2")
    p = entry_place(icfa, (18, 26), f2)
    assert p == (18, 26, f2)
    # re-entering a function already on the chain folds back to that frame;
    # only a function on a call cycle can be re-entered
    rec = icfa_of(RECURSIVE)
    assert rec.recursive_functions == {"walk"}
    assert icfa.recursive_functions == frozenset()
    walk = rec.entry_of("walk")
    site = {rec.func_of(e.src): e for e in rec.edges
            if isinstance(e.op, FuncEntryOp) and e.tgt == walk}
    p = entry_place(rec, (site["main"].src,), site["main"].tgt)
    assert p == (site["main"].src, site["main"].tgt)
    assert entry_place(rec, p[:-1] + (site["walk"].src,), site["walk"].tgt) == p
    leaf = rec.entry_of("leaf")  # not recursive: the chain is not scanned
    assert entry_place(rec, (site["walk"].src,), leaf) == (site["walk"].src, leaf)


def next_place(icfa, e, p):
    """Successor place along an edge, or None when the edge is infeasible:
    the tests' reference for step_place together with the call-site filter
    of each solver."""
    if isinstance(e.op, ENTRY_OPS):
        return entry_place(icfa, p, e.tgt)
    if isinstance(e.op, EXIT_OPS):
        if len(p) < 2 or p[-2] != e.call_site:
            return None  # return edge belonging to a different call site
        return p[:-2] + (e.tgt,)
    return p[:-1] + (e.tgt,)


def transfer(icfa, client, e, p, state):
    """Full framework transfer; None means no contribution (bottom)."""
    fpm = {} if isinstance(e.op, EXIT_OPS) else fp_transfer(icfa, e, state[0])
    if fpm is None:
        return None
    return fpm, client.transfer(e, p, state[1])


def test_step_place_steps(showcase_icfa):
    icfa = showcase_icfa
    fx = next(e for e in icfa.edges if isinstance(e.op, FuncExitOp))
    fe = next(e for e in icfa.edges if isinstance(e.op, FuncEntryOp))
    intra = next(e for e in icfa.edges if not isinstance(e.op, INTER_OPS))
    assert [e.kind for e in (fx, fe, intra)] == [RETURN, ENTRY, INTRA]
    assert step_place(icfa, (5, fx.call_site, fx.src), fx, RETURN) == (5, fx.tgt)
    assert step_place(icfa, (18, fe.src), fe, ENTRY) == (18, fe.src, fe.tgt)
    assert step_place(icfa, (18, intra.src), intra, INTRA) == (18, intra.tgt)
    # the call-site test is the automaton's step table: a return edge
    # fires from its own call site's chain only
    at_exit = icfa.steps_at[fx.src]
    assert fx in at_exit[fx.call_site][0]
    assert fx not in at_exit[None][0]
    inter = icfa.steps_in[icfa.func_of(fx.src)][1]
    assert fx in [s[0] for s in inter[fx.call_site]]
    assert fx not in [s[0] for s in inter[None]]


def test_every_return_edge_names_its_call_site():
    # so a place always has the frame a return pops: step_place needs no
    # frameless case, and no exit's row for "any other site" holds a step
    for src in lockset_sources() + [RECURSIVE]:
        icfa = icfa_of(src)
        for e in icfa.edges:
            if e.kind == RETURN:
                assert e.call_site is not None, e
                assert isinstance(e.op, EXIT_OPS), e
        for fi in icfa.functions.values():
            assert icfa.steps_at[fi.exit][None] == ((), [])


# Threads started outside main, each with the verdict it must get. Their
# contexts stay bounded only while every return edge fires from its own
# call site's context alone.
OUTSIDE_MAIN = {
    "nested-free": ("""
mutex a;
int inner(int x) { lock(&a); unlock(&a); return 0; }
int outer(int x) { thread_t g; create(&g, inner, x); join(g); return 0; }
int main() { thread_t t1; create(&t1, outer, 0); join(t1); return 0; }
""", PROVED_FREE),
    "nested-deadlock": ("""
mutex a; mutex b;
int inner(int x) { lock(&a); lock(&b); unlock(&b); unlock(&a); return 0; }
int outer(int x) { thread_t g; create(&g, inner, x); join(g); return 0; }
int main() {
    thread_t t;
    create(&t, outer, 0);
    lock(&b); lock(&a); unlock(&a); unlock(&b);
    join(t);
    return 0;
}
""", POTENTIAL),
    "spawned-into-a-global": ("""
mutex a; mutex b;
thread_t h;
int worker(int x) { lock(&a); lock(&b); unlock(&b); unlock(&a); return 0; }
int spawn() { create(&h, worker, 0); return 0; }
int main() {
    spawn();
    lock(&b); lock(&a); unlock(&a); unlock(&b);
    join(h);
    return 0;
}
""", POTENTIAL),
    "helper-called-twice": ("""
mutex a; mutex b;
thread_t t0; thread_t t1;
int worker(int x) {
    if (x == 0) { lock(&a); lock(&b); unlock(&b); unlock(&a); }
    else { lock(&b); lock(&a); unlock(&a); unlock(&b); }
    return 0;
}
int start(int k) {
    if (k == 0) { create(&t0, worker, k); } else { create(&t1, worker, k); }
    return 0;
}
int main() {
    start(0);
    start(1);
    join(t0);
    join(t1);
    return 0;
}
""", POTENTIAL),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_MAIN))
def test_threads_started_outside_main_get_their_verdict(name):
    src, verdict = OUTSIDE_MAIN[name]
    a, res = analyzed(src)
    assert a.verdict == verdict, a.error
    assert not res.truncated and bool(res.witnesses) == (verdict == POTENTIAL)
    assert check_all(a, res) == []


def reference_step(icfa, e):
    """(kind, plain) of an edge, from its op class and the variable types:
    the tests' reference for the step kinds build_icfa gives."""
    op = e.op
    if isinstance(op, ThreadEntryOp):
        return ENTRY, False
    if isinstance(op, FuncEntryOp):
        types = icfa.prog.var_types
        return ENTRY, not any(is_fnptr(types.get(par)) for par in op.params)
    if isinstance(op, EXIT_OPS):
        return RETURN, True
    writes_fp = isinstance(op, Assign) and isinstance(op.lhs, VarRef) \
        and is_fnptr(op.lhs.typ)
    return INTRA, not writes_fp


def test_step_table_matches_the_reference():
    sources = [load(f.name) for f in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(k, random_config(k)) for k in range(60)]
    plain = {True: 0, False: 0}
    for src in sources + [RECURSIVE, LATE_ENTRY, ONE_TARGET]:
        icfa = icfa_of(src)
        for e in icfa.edges:
            assert (e.kind, e.plain) == reference_step(icfa, e), e
            plain[e.plain] += 1
        exits = {fi.exit: f for f, fi in icfa.functions.items()}
        for loc, out in icfa.out_edges.items():
            rows = icfa.steps_at[loc]
            if loc not in exits:
                rows = {None: rows}
            for site, (es, steps) in rows.items():
                mine = [e for e in out if e.call_site in (None, site)]
                assert list(es) == mine, (loc, site)
                assert list(steps) == [(e, e.kind, e.plain) for e in mine]
            sites = {None} | {e.call_site for e in out}
            assert rows.keys() == sites, loc
        # per function: the intra steps, and per call site the entry steps
        # and the return steps of that site or of none, in edge order
        for f in icfa.functions:
            own = [e for e in icfa.edges if icfa.func_of(e.src) == f]
            intra, inter = icfa.steps_in[f]
            assert [s[0] for s in intra] == [e for e in own if e.kind == INTRA]
            for site, steps in inter.items():
                assert [s[0] for s in steps] == [
                    e for e in own if e.kind != INTRA
                    and e.call_site in (None, site)], (f, site)
                assert all(s == (s[0], s[0].kind, s[0].plain) for s in steps)
    assert plain[True] and plain[False]


def test_fi_context_keeps_call_sites(showcase_icfa):
    icfa = showcase_icfa
    t1 = icfa.entry_of("thread1")
    assert fi_context(icfa, (18, 5)) == (18, t1)
    assert fi_context(icfa, (18, t1)) == (18, t1)
    assert fi_context(icfa, (22,)) == (icfa.entry_of("main"),)


ALL_OPS = get_args(Op)


class CountingClient:
    """Client whose state is a bounded step counter; join is max."""

    ops = ALL_OPS

    def initial(self):
        return 0

    def join(self, a, b):
        return max(a, b)

    def transfer(self, e, place, state):
        return min(state + 1, 40)  # bounded so the fixpoint terminates


def solve(icfa, client):
    """solve_fs over a fresh exploration of the automaton."""
    return solve_fs(explore(icfa), client)


def shuffled_solve(icfa, client, seed: int):
    """solve, with both worklists popping in a random order."""
    with shuffled_worklists(seed):
        return solve(icfa, client)


def test_solve_fs_explores_thread_and_calls(showcase_icfa):
    icfa = showcase_icfa
    res = solve(icfa, CountingClient())
    ps = res.places.places()
    assert (icfa.entry_of("main"),) in ps
    assert any(len(p) == 2 and p[0] == 18 for p in ps)  # thread1 places
    assert any(len(p) == 2 and p[0] == 26 for p in ps)  # func2 places
    pid = res.places.lookup((18, icfa.entry_of("thread1")))
    assert res.fpm[pid] == {} and res.state[pid] >= 1


def test_fs_places_step_into_fi_contexts():
    # both solvers step with step_place; without an edge filter, solve_fi
    # must reach the fi_context of every place solve_fs reaches
    sources = [load(f.name) for f in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(k, random_config(k)) for k in range(60)]
    for src in sources:
        icfa = icfa_of(src)
        contexts = set(solve_fi(icfa, CountingClient()).places.places())
        for p in explore(icfa).places.by_id:
            assert fi_context(icfa, p) in contexts, p


def states_by_place(res):
    return {p: (res.fpm[pid], res.state[pid])
            for pid, p in enumerate(res.places.by_id)}


def test_solve_fs_worklist_order_independent(showcase_icfa):
    base = states_by_place(solve(showcase_icfa, CountingClient()))
    for seed in (1, 7, 1234):
        other = shuffled_solve(showcase_icfa, CountingClient(), seed)
        assert base == states_by_place(other)


def test_solve_fs_order_independent_generated():
    for seed in range(20):
        icfa = icfa_of(generate(seed, random_config(seed)))
        shared = explore(icfa)
        base = states_by_place(solve_fs(shared, CountingClient()))
        # the shuffled pops explore too, so the fp-map fixpoint is reached
        # in the shuffled order as well
        with shuffled_worklists(seed + 1):
            shuffled = explore(icfa)
            jittered = solve_fs(shuffled, CountingClient())
        assert base == states_by_place(jittered)
        # both explorations read the automaton's one step table: a place
        # that takes every edge of its row holds the row's own edge tuple
        full = 0
        for q, p in enumerate(shuffled.places.by_id):
            es = shared.edges[shared.places.lookup(p)]
            assert shuffled.edges[q] == es
            row = icfa.steps_at[p[-1]]
            if type(row) is dict:
                row = row.get(p[-2] if len(p) > 1 else None, row[None])
            if len(es) == len(row[0]):
                assert shuffled.edges[q] is es is row[0]
                full += 1
        assert full


def lockset_sources():
    sources = [load(f.name) for f in sorted(FIXTURES.glob("*.mc"))]
    return sources + [generate(k, random_config(k)) for k in range(40)]


class EveryOp:
    """A client with its transfer applied to every edge."""

    ops = ALL_OPS

    def __init__(self, client):
        self.initial, self.join = client.initial, client.join
        self.transfer = client.transfer


def solved(res):
    return res.places.places(), res.fpm, res.state, res.steps


def test_plain_edges_pass_the_state_through():
    # solve_fs calls no transfer on an edge outside client.ops; that must
    # change nothing, and transfer must return the very state it was given
    for src in lockset_sources():
        icfa = icfa_of(src)
        a = analyze_icfa(icfa)
        graph = explore(icfa)
        for make in (MayLockset, MustLockset):
            client = make(a.pt)
            res = solve_fs(graph, client)
            assert solved(res) == solved(solve_fs(graph, EveryOp(make(a.pt))))
            for pid, p in enumerate(res.places.places()):
                cs = res.state[pid]
                for e in icfa.out_edges[p[-1]]:
                    if not isinstance(e.op, client.ops):
                        assert client.transfer(e, p, cs) is cs, (e, p)
        client = PointsToClient(a.pt.model)
        for pid, p in enumerate(a.pt.solve.places.places()):
            cs = a.pt.solve.state[pid]
            for e in icfa.edges:
                if not isinstance(e.op, client.ops):
                    assert client.transfer(e, p, cs) is cs, (e, p)


def test_solve_fs_steps_places_as_next_place_does():
    # the places solve_fs reaches are main's entry plus every feasible
    # next_place step out of them
    for src in lockset_sources() + [RECURSIVE]:
        icfa = icfa_of(src)
        client = CountingClient()
        res = solve(icfa, client)
        places = res.places.places()
        stepped = {(icfa.entry_of(icfa.entry_fn),)}
        for pid, p in enumerate(places):
            for e in icfa.out_edges[p[-1]]:
                p2 = next_place(icfa, e, p)
                if p2 is None:
                    continue
                state = res.fpm[pid], res.state[pid]
                if transfer(icfa, client, e, p, state) is not None:
                    stepped.add(p2)
        assert stepped == set(places)


# A thread started through a function-pointer parameter that the loop body
# overwrites: the create is first stepped with g = w1, and w2's entry becomes
# feasible only once the loop's back edge has degraded g to DIRTY.
LATE_ENTRY = """
mutex m0;
mutex m1;
int w1(int a) { lock(&m0); unlock(&m0); return 0; }
int w2(int a) { lock(&m1); unlock(&m1); return 0; }
int starter(int (*g)(int)) {
    thread_t t;
    int k;
    k = 0;
    while (k < 2) {
        create(&t, g, 0);
        g = w2;
        k = k + 1;
    }
    return 0;
}
int main() {
    int r;
    r = starter(w1);
    return r;
}
"""


# Each call of starter tracks g to one function, so at each create place
# the other function's thread entry is an out-edge that stays infeasible.
ONE_TARGET = """
mutex m0;
mutex m1;
int w1(int a) { lock(&m0); unlock(&m0); return 0; }
int w2(int a) { lock(&m1); unlock(&m1); return 0; }
int starter(int (*g)(int)) {
    thread_t t;
    create(&t, g, 0);
    join(t);
    return 0;
}
int main() {
    int r;
    r = starter(w1);
    r = starter(w2);
    return r;
}
"""


class ReferenceWorklist:
    """One (fp map, client state) pair per place, places interned in
    first-add order and popped first in first out; add joins a contribution
    into its place's state and re-queues the place only when the state grew.
    Main's entry starts with the initial state."""

    def __init__(self, icfa, client):
        self.join = client.join
        self.places = PlaceMap()
        self.states, self.work, self.queued = {}, deque(), set()
        self.steps = 0
        self.add((icfa.entry_of(icfa.entry_fn),), ({}, client.initial()))

    def add(self, p, contrib):
        pid = self.places.intern(p)
        old = self.states.get(pid)
        if old is not None:
            contrib = (join_fp(old[0], contrib[0]), self.join(old[1], contrib[1]))
            if contrib == old:
                return
        self.states[pid] = contrib
        if pid not in self.queued:
            self.queued.add(pid)
            self.work.append(pid)

    def __iter__(self):
        while self.work:
            self.steps += 1
            pid = self.work.popleft()
            self.queued.discard(pid)
            yield pid


def reference_solve(icfa, client):
    """One worklist over (fp map, client state) pairs that steps every place
    with next_place and the full transfer, the two interleaved.

    Returns the places in id order, the state of each, the number of pops,
    and the (place id, edge) of each thread entry first feasible on a later
    pop of its place than the first.
    """
    wl = ReferenceWorklist(icfa, client)
    states, first, late = wl.states, {}, []
    for pid in wl:
        p = wl.places.resolve(pid)
        fired = set()
        for e in icfa.out_edges[p[-1]]:
            p2 = next_place(icfa, e, p)
            contrib = None if p2 is None else transfer(icfa, client, e, p,
                                                       states[pid])
            if contrib is not None:
                fired.add(e)
                wl.add(p2, contrib)
        if pid in first:
            late += [(pid, e) for e in fired - first[pid]
                     if isinstance(e.op, ThreadEntryOp)]
        first.setdefault(pid, fired)
    return wl.places.places(), states, wl.steps, late


class PassThrough:
    """Stands in for the client on edges the dependency filter rejects."""
    transfer = staticmethod(lambda e, p, state: state)


def reference_solve_fi(icfa, client, edge_filter=None):
    """solve_fi's contexts and states, stepped with next_place and the full
    transfer: each pop composes the function's intra edges to a local
    fixpoint, then tries every inter-function edge out of the function.

    Returns the contexts in id order, the state of each and the number of
    pops.
    """
    intra = {f: [] for f in icfa.functions}
    inter = {f: [] for f in icfa.functions}
    for e in icfa.edges:
        (inter if isinstance(e.op, INTER_OPS) else intra)[
            icfa.func_of(e.src)].append(e)

    def allowed(e):
        return edge_filter is None or edge_filter(e)

    wl = ReferenceWorklist(icfa, client)
    for pid in wl:
        p = wl.places.resolve(pid)
        f = icfa.func_of(p[-1])
        fpm, cs = wl.states[pid]
        for e in intra[f]:
            fpm = fp_transfer(icfa, e, fpm)
        changed = True
        while changed:
            changed = False
            for e in intra[f]:
                if not allowed(e):
                    continue
                cs2 = client.join(cs, client.transfer(e, p, cs))
                if cs2 != cs:
                    cs = cs2
                    changed = True
        wl.states[pid] = (fpm, cs)
        for e in inter[f]:
            p2 = next_place(icfa, e, p[:-1] + (e.src,))
            if p2 is None:
                continue
            if allowed(e):
                contrib = transfer(icfa, client, e, p, (fpm, cs))
            elif isinstance(e.op, ENTRY_OPS):
                continue
            else:
                contrib = transfer(icfa, PassThrough, e, p, (fpm, cs))
            if contrib is not None:
                wl.add(fi_context(icfa, p2), contrib)
    return wl.places.places(), wl.states, wl.steps


def assert_reads_as(res, reference: dict):
    """A solver's fpm and state lists read, by place id, as the reference's
    (fp map, client state) pairs."""
    assert len(res.fpm) == len(res.state) == len(reference)
    assert dict(enumerate(zip(res.fpm, res.state))) == reference


def test_place_graph_solve_equals_the_interleaved_reference():
    for src in lockset_sources() + [RECURSIVE]:
        icfa = icfa_of(src)
        a = analyze_icfa(icfa)
        for make in (lambda: MayLockset(a.pt), lambda: MustLockset(a.pt),
                     CountingClient):
            res = solve(icfa, make())
            places, states, steps, late = reference_solve(icfa, make())
            assert res.places.places() == places
            assert_reads_as(res, states)
            assert res.steps == steps
            assert not late


def test_thread_entry_feasible_only_late():
    icfa = icfa_of(LATE_ENTRY)
    for client in (CountingClient, lambda: MayLockset(analyze_icfa(icfa).pt)):
        places, states, _, late = reference_solve(icfa, client())
        assert late  # w2's entry, once g is DIRTY
        base = states_by_place(solve(icfa, client()))
        assert base == {p: states[pid] for pid, p in enumerate(places)}
        assert base == states_by_place(shuffled_solve(icfa, client(), 3))
    graph = explore(icfa)
    for pid, e in late:  # the graph keeps the late step
        p = places[pid]
        assert e in graph.edges[graph.places.lookup(p)]


def test_infeasible_step_leaves_the_place_graph():
    icfa = icfa_of(ONE_TARGET)
    graph, table = explore(icfa), icfa.steps_at
    place = graph.places.by_id
    creates = [pid for pid, p in enumerate(place)
               if any(isinstance(e.op, ThreadEntryOp) for e in icfa.out_edges[p[-1]])]
    assert len(creates) == 2
    for pid in creates:
        out = table[place[pid][-1]][0]
        assert len(out) == 3 and len(graph.edges[pid]) == 2  # one entry is dropped
        assert set(graph.edges[pid]) < set(out)
        assert [place[q][-1] for q in graph.steps[pid]] == \
            [e.tgt for e in graph.edges[pid]]
    for client in (CountingClient, lambda: MayLockset(analyze_icfa(icfa).pt)):
        places, states, _, _ = reference_solve(icfa, client())
        assert states_by_place(solve(icfa, client())) == \
            {p: states[pid] for pid, p in enumerate(places)}


def test_solve_fi_equals_the_reference():
    for src in lockset_sources() + [RECURSIVE, LATE_ENTRY]:
        icfa = icfa_of(src)
        for edge_filter in (affecting_edges(icfa).allows, None):
            client = PointsToClient(ObjectModel(icfa))
            res = solve_fi(icfa, client, edge_filter)
            ref = PointsToClient(ObjectModel(icfa))
            places, states, steps = reference_solve_fi(icfa, ref, edge_filter)
            assert res.places.places() == places
            assert_reads_as(res, states)
            assert res.steps == steps
            assert client.visits == ref.visits


def test_diamond_tables_share_their_values():
    icfa = icfa_of(diamond_source(8, random.Random(5)))
    a = analyze_icfa(icfa)
    graph = a.locks.graph
    assert all(m is EMPTY_FPM for m in graph.fpm if not m)
    with pytest.raises(TypeError):
        EMPTY_FPM["g"] = "f0"
    # every out-edge is feasible, so equal edge tuples are one object
    assert len({id(t) for t in graph.edges}) == len(set(graph.edges))
    for res in (a.locks.may, a.locks.must):
        states = [res.state[pid] for pid, _, _ in a.locks.lock_places]
        assert len({id(s) for s in states}) == len(set(states)) < len(states)


def test_memory_per_place():
    # the analysis keeps a few hundred bytes per place; equal states, maps
    # and edge tuples are shared, not copied per place
    src = diamond_source(8, random.Random(5))
    analyze_source(diamond_source(2, random.Random(5)))  # lazy set-up
    tracemalloc.start()
    try:
        a = analyze_source(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    places = len(a.locks.may.places)
    assert places == 5632
    assert peak / places <= 550
