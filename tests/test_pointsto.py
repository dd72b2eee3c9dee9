import random

from conftest import icfa_of
from lockhound.frontend.icfa import FuncEntryOp
from lockhound.frontend.syntax import (
    INT, MUTEX, IntLit, LockStmt, PointerType, StructType, Unary, VarRef,
)
from lockhound.pipeline import Config, analyze_source
from lockhound.pointsto import (
    EMPTY, STAR, TOP_STATE, AllocObj, ArrayCellObj, FieldObj, GlobalObj,
    LocalObj, ObjectModel, PointsToClient, eval_expr, lvalue_objects, vs_eq,
    vs_union,
)


def line_no(src: str, snippet: str) -> int:
    for i, ln in enumerate(src.splitlines(), 1):
        if snippet in ln:
            return i
    raise AssertionError(f"snippet not found: {snippet}")


def lock_points(a):
    """Union of value sets per source line of each lock statement."""
    out: dict[int, object] = {}
    may = a.locks.may
    for p in may.places.by_id:
        for e in a.icfa.out_edges[p[-1]]:
            if isinstance(e.op, LockStmt):
                vs = a.pt.value_set(p, e.op.arg, at_sync=True)
                out[e.line] = vs_union(out.get(e.line, EMPTY), vs)
    return out


def names(vs):
    assert vs is not STAR
    return {repr(o) for o in vs}


def test_vs_algebra():
    a = frozenset([GlobalObj("m")])
    assert vs_union(a, EMPTY) == a
    assert vs_union(a, STAR) is STAR
    assert vs_union(STAR, a) is STAR
    assert vs_eq(STAR, STAR)
    assert not vs_eq(STAR, a)
    assert vs_eq(a, frozenset([GlobalObj("m")]))


def test_object_model_types():
    icfa = icfa_of("""
        struct node { mutex m; int v; };
        mutex g;
        struct node pool[2];
        int main() {
            struct node* p;
            p = malloc(struct node);
            lock(&p->m);
            unlock(&p->m);
            return 0;
        }
    """)
    model = ObjectModel(icfa)
    assert model.var_obj("g") == GlobalObj("g")
    assert model.var_obj("main::p") == LocalObj("main::p")
    assert model.type_of(GlobalObj("g")) == MUTEX
    cell = ArrayCellObj(GlobalObj("pool"))
    assert model.type_of(cell) == StructType("node")
    assert model.type_of(FieldObj(cell, "m")) == MUTEX
    assert model.type_of(FieldObj(cell, "v")) == INT
    (site,) = model.alloc_types
    assert model.type_of(FieldObj(AllocObj(site), "m")) == MUTEX


def test_eval_and_lvalue_by_hand():
    icfa = icfa_of("""
        mutex ma; mutex mb;
        mutex* q;
        int main() { q = &ma; lock(q); unlock(q); return 0; }
    """)
    model = ObjectModel(icfa)
    ma, q = GlobalObj("ma"), GlobalObj("q")
    pm = PointerType(MUTEX)
    state = {q: frozenset([ma])}
    qe = VarRef("q", typ=pm)
    assert eval_expr(model, state, qe) == frozenset([ma])
    assert eval_expr(model, state, IntLit(0)) == EMPTY
    amb = Unary("&", VarRef("mb", typ=MUTEX), typ=pm)
    assert eval_expr(model, state, amb) == frozenset([GlobalObj("mb")])
    deref = Unary("*", qe, typ=MUTEX)
    assert lvalue_objects(model, state, deref) == frozenset([ma])
    # reads and writes under an unknown state stay unknown
    assert eval_expr(model, TOP_STATE, qe) is STAR
    assert lvalue_objects(model, TOP_STATE, deref) is STAR
    assert eval_expr(model, {q: STAR}, deref) is STAR


GLOBALS_SRC = """
    mutex ma; mutex mb;
    int main() {
        mutex* p;
        p = &ma;
        lock(p);
        unlock(p);
        lock(&mb);
        unlock(&mb);
        return 0;
    }
"""


def test_globals_and_locals_resolved():
    a = analyze_source(GLOBALS_SRC)
    pts = lock_points(a)
    assert names(pts[line_no(GLOBALS_SRC, "lock(p)")]) == {"ma"}
    assert names(pts[line_no(GLOBALS_SRC, "lock(&mb)")]) == {"mb"}


BRANCH_SRC = """
    mutex ma; mutex mb;
    int g;
    int main() {
        mutex* p;
        p = 0;
        if (g) { p = &ma; } else { p = &mb; }
        lock(p);
        unlock(p);
        return 0;
    }
"""


def test_branch_union_and_null():
    a = analyze_source(BRANCH_SRC)
    # null contributes nothing lockable; both branches merge
    assert names(lock_points(a)[line_no(BRANCH_SRC, "lock(p)")]) == {"ma", "mb"}


HEAP_SRC = """
    struct node { mutex m; struct node* next; };
    int main() {
        struct node* h;
        struct node* t;
        h = malloc(struct node);
        t = malloc(struct node);
        h->next = t;
        lock(&h->next->m);
        unlock(&h->next->m);
        return 0;
    }
"""


def test_malloc_and_field_chain():
    a = analyze_source(HEAP_SRC)
    vs = lock_points(a)[line_no(HEAP_SRC, "lock(&h->next->m)")]
    assert vs is not STAR
    assert {type(o).__name__ for o in vs} == {"FieldObj"}
    assert {o.field for o in vs} == {"m"}
    assert all(isinstance(o.base, AllocObj) for o in vs)


ARRAY_SRC = """
    mutex pool[4];
    int i;
    int main() {
        lock(&pool[i]);
        unlock(&pool[i]);
        lock(&pool[2]);
        unlock(&pool[2]);
        return 0;
    }
"""


def test_array_smashing():
    a = analyze_source(ARRAY_SRC)
    pts = lock_points(a)
    cell = frozenset([ArrayCellObj(GlobalObj("pool"))])
    assert pts[line_no(ARRAY_SRC, "lock(&pool[i])")] == cell
    # constant index smashed to the same cell
    assert pts[line_no(ARRAY_SRC, "lock(&pool[2])")] == cell


LAUNDER_SRC = """
    mutex ma;
    int x;
    int main() {
        mutex* p;
        p = x;
        lock(p);
        unlock(p);
        return 0;
    }
"""


def test_laundering_degrades_to_star():
    a = analyze_source(LAUNDER_SRC)
    # a pointer conjured out of an integer could target any mutex
    assert lock_points(a)[line_no(LAUNDER_SRC, "lock(p)")] is STAR


def test_unset_pointer_degrades_at_sync_only():
    a = analyze_source("""
        mutex ma;
        int main() {
            mutex* p;
            lock(p);
            unlock(p);
            return 0;
        }
    """)
    icfa = a.icfa
    lk = next(e for e in icfa.edges if isinstance(e.op, LockStmt))
    place = (lk.src,)
    assert a.pt.value_set(place, lk.op.arg) == EMPTY  # plain query: no info
    assert a.pt.value_set(place, lk.op.arg, at_sync=True) is STAR


ALIAS_STORE_SRC = """
    mutex ma; mutex mb;
    int main() {
        mutex** pp;
        mutex* q;
        q = &ma;
        pp = &q;
        *pp = &mb;
        lock(q);
        unlock(q);
        return 0;
    }
"""


def test_store_through_pointer_reaches_aliases():
    # the indirect write lands on q in both modes: the edge filter keeps
    # deref stores whose base connects to a lock operand
    for cfg in (Config(), Config(no_depend=True)):
        a = analyze_source(ALIAS_STORE_SRC, cfg)
        vs = lock_points(a)[line_no(ALIAS_STORE_SRC, "lock(q)")]
        assert names(vs) == {"ma", "mb"}


STORE_STAR_SRC = """
    mutex ma; mutex mb;
    int x;
    int main() {
        mutex** pp;
        mutex* q;
        pp = x;
        *pp = &mb;
        q = &ma;
        lock(q);
        unlock(q);
        return 0;
    }
"""


def test_store_through_star_collapses_state():
    # unfiltered, the store through a laundered pointer may hit anything
    a = analyze_source(STORE_STAR_SRC, Config(no_depend=True))
    assert lock_points(a)[line_no(STORE_STAR_SRC, "lock(q)")] is STAR
    # the edge filter proves pp never flows into a lock operand and skips
    # both pp edges; dereferencing a number is not a defined acquisition
    a = analyze_source(STORE_STAR_SRC)
    assert names(lock_points(a)[line_no(STORE_STAR_SRC, "lock(q)")]) == {"ma"}


WRAPPER_SRC = """
    mutex ma; mutex mb;
    void acquire(mutex* x) { lock(x); }
    void release(mutex* x) { unlock(x); }
    int main() {
        acquire(&ma);
        acquire(&mb);
        release(&mb);
        release(&ma);
        return 0;
    }
"""


def call_site_at(icfa, line: int) -> int:
    return next(e.src for e in icfa.edges
                if isinstance(e.op, FuncEntryOp) and e.line == line)


def test_param_binding_is_per_call_site():
    a = analyze_source(WRAPPER_SRC)
    icfa = a.icfa
    lk = next(e for e in icfa.edges if isinstance(e.op, LockStmt))
    cs_ma = call_site_at(icfa, line_no(WRAPPER_SRC, "acquire(&ma)"))
    cs_mb = call_site_at(icfa, line_no(WRAPPER_SRC, "acquire(&mb)"))
    assert names(a.pt.value_set((cs_ma, lk.src), lk.op.arg, at_sync=True)) == {"ma"}
    assert names(a.pt.value_set((cs_mb, lk.src), lk.op.arg, at_sync=True)) == {"mb"}


def test_merged_contexts_blur_call_sites():
    a = analyze_source(WRAPPER_SRC, Config(ctx_insensitive=True))
    icfa = a.icfa
    lk = next(e for e in icfa.edges if isinstance(e.op, LockStmt))
    for snippet in ("acquire(&ma)", "acquire(&mb)"):
        cs = call_site_at(icfa, line_no(WRAPPER_SRC, snippet))
        vs = a.pt.value_set((cs, lk.src), lk.op.arg, at_sync=True)
        assert names(vs) == {"ma", "mb"}


def test_binding_visit_counter_exposed():
    a = analyze_source(WRAPPER_SRC)
    assert a.stats["binding_applications"] > 0


def reference_join(a, b):
    """PointsToClient.join as a copy of a and one union per cell of b."""
    if a is TOP_STATE or b is TOP_STATE:
        return TOP_STATE
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k, EMPTY)
        nv = vs_union(cur, v)
        if not vs_eq(cur, nv):
            out[k] = nv
    return out


def test_join_copies_only_on_change():
    rng = random.Random(7)
    objs = [GlobalObj(f"g{i}") for i in range(4)]

    def state():
        if rng.random() < 0.1:
            return TOP_STATE
        return {c: STAR if rng.random() < 0.15 else
                frozenset(rng.sample(objs, rng.randint(0, 3)))
                for c in rng.sample(objs, rng.randint(0, 4))}

    def frozen(s):
        return s if s is TOP_STATE else dict(s)

    join = PointsToClient(None).join
    grew = 0
    for _ in range(2000):
        a = state()
        # b: a fresh state, a part of a, or a itself
        b = rng.choice([state(), a if a is TOP_STATE else
                        dict(rng.sample(sorted(a.items(), key=repr),
                                        len(a) // 2)), a])
        a0, b0 = frozen(a), frozen(b)
        ab = join(a, b)
        assert (a, b) == (a0, b0)  # neither argument changes
        want = reference_join(a, b)
        assert ab == want, (a, b)
        if want == a:
            assert ab is a  # b adds nothing: a itself
        else:
            grew += 1
    assert 200 < grew < 1800
