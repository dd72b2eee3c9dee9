"""Exhaustive-interleaving reference executor: witnesses, UB, determinism."""

import json

import pytest

from checks import oracle_facts
from conftest import FIXTURES, icfa_of, load
from lockhound.generator import generate
from lockhound.oracle import OracleUnsupported, run_oracle
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


def test_recursion_is_rejected():
    src = """
int f(int n) { if (n == 0) { return 0; } int r; r = f(n - 1); return r; }
int main() { int x; x = f(3); return x; }
"""
    with pytest.raises(OracleUnsupported):
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
