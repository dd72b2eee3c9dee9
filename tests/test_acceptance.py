"""Acceptance gate: the nine end-to-end criteria this analyzer must meet.

Each test prints one PASS line with its headline numbers; any assertion
failure is the corresponding FAIL. Criteria 3 and 4 share one sweep over a
500-program generated corpus (analysis + exhaustive reference execution per
program), provided by the session fixture below. The sweep also compares
every oracle run with its entry in bench/corpus_labels.json, read-only, and
the precision ratchet reads its verdicts against those labels.
"""

import multiprocessing
import os
import random
import sys
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from checks import (
    check_deadlocks_reported,
    check_may_covers,
    check_must_subset,
    cycle_confirmed,
)
from conftest import (
    close_triples, icfa_of, load, shuffled_worklists, triple_locks,
)
from lockhound.framework import DIRTY, join_fp
from lockhound.generator import GenConfig, generate, random_config
from lockhound.locksets import MayLockset, MustLockset, solve_locksets
from lockhound.oracle import OracleUnsupported, run_oracle
from lockhound.pipeline import (
    POTENTIAL, PROVED_FREE, Config, analyze_icfa, analyze_source,
)
from lockhound.pointsto import (
    STAR, GlobalObj, ObjectModel, PointsToClient, PointsToResult,
)
from lockhound.framework import solve_fi
from lockhound.frontend.syntax import CreateStmt, LockStmt, UnlockStmt

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tools"))
from precision import label_of  # noqa: E402
from workloads import load_labels, oracle_fingerprint  # noqa: E402

MUTANTS = [
    "mutant_nogate", "mutant_nojoin", "mutant_double", "mutant_ring",
    "mutant_heap", "mutant_wrapper", "mutant_loop_create",
    "mutant_branch_join",
]

CORPUS_SIZE = 500
ORACLE_BUDGET = 100_000

# The precision ratchet's bounds on the labelled corpus: a change may lower
# the false alarms or raise the proved programs, and then tightens these.
FALSE_ALARMS_AT_MOST = 34
PROVED_AT_LEAST = 338


def sweep_one(seed: int):
    """Analyze and exhaustively execute corpus program `seed`.

    Returns its source, the oracle's fingerprint (as the labels record it),
    the may, deadlock and must violations, and the verdict; None when the
    oracle cannot run it.
    """
    src = generate(seed, random_config(seed))
    icfa = icfa_of(src)
    a = analyze_icfa(icfa)
    try:
        res = run_oracle(icfa, max_states=ORACLE_BUDGET, collect_copairs=False)
    except OracleUnsupported:
        return None
    return (src, oracle_fingerprint(res), check_may_covers(a, res),
            check_deadlocks_reported(a, res), check_must_subset(a, res),
            a.verdict)


def label_mismatches(label: dict, got: dict | None) -> list[str]:
    """Where an oracle run (None: unsupported) differs from its label, on
    the keys bench/run.py's check_oracle compares."""
    if got is None or "unsupported" in label:
        same = got is None and "unsupported" in label
        return [] if same else [f"supported {got is not None}, label {label}"]
    keys = ("states", "truncated") if label["truncated"] else \
        ("states", "truncated", "arrivals", "arrivals_sha256", "witnesses")
    return [f"oracle {k} {got[k]!r}, label {label[k]!r}"
            for k in keys if got[k] != label[k]]


@pytest.fixture(scope="session")
def corpus_sweep():
    """Analyze + exhaustively execute 500 generated programs once.

    The programs run on at most two worker processes; results are taken in
    seed order, so the sweep covers the same programs as a serial one.
    """
    t0 = time.perf_counter()
    sources: list[str] = []
    thm1: list[str] = []   # may-locksets cover every concrete arrival
    thm2: list[str] = []   # every concrete deadlock is reported
    must: list[str] = []   # must-locksets are held on every arrival
    labels = load_labels()
    mislabelled: list[str] = []  # oracle facts that differ from the labels
    verdicts: dict[int, str] = {}  # seed -> verdict
    truncated = unsupported = labelled = 0
    workers = min(2, os.cpu_count() or 1)
    seeds = iter(range(CORPUS_SIZE + 150))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        pending: deque = deque()

        def submit() -> None:
            seed = next(seeds, None)
            if seed is not None:
                pending.append((seed, pool.submit(sweep_one, seed)))

        for _ in range(2 * workers):
            submit()
        while pending and len(sources) < CORPUS_SIZE:
            seed, job = pending.popleft()
            got = job.result()
            tag = f"[seed {seed}]"
            if seed in labels:
                labelled += 1
                mislabelled += [f"{tag} {v}" for v in label_mismatches(
                    labels[seed], got and got[1])]
            if got is None:
                unsupported += 1
            else:
                src, facts, may_bad, deadlock_bad, must_bad, verdict = got
                sources.append(src)
                verdicts[seed] = verdict
                truncated += facts["truncated"]
                thm1 += [f"{tag} {v}" for v in may_bad]
                thm2 += [f"{tag} {v}" for v in deadlock_bad]
                must += [f"{tag} {v}" for v in must_bad]
            if len(sources) < CORPUS_SIZE:
                submit()
        pool.shutdown(cancel_futures=True)
    return SimpleNamespace(
        sources=sources, thm1=thm1, thm2=thm2, must=must,
        verdicts=verdicts, mislabelled=mislabelled, labelled=labelled,
        truncated=truncated, unsupported=unsupported,
        runtime=time.perf_counter() - t0)


def test_criterion_1_flagship_example_proved_free(showcase_source):
    t0 = time.perf_counter()
    a = analyze_source(showcase_source)
    dt = time.perf_counter() - t0
    assert a.verdict == PROVED_FREE
    assert len(a.search.cycles) == 2 and not a.reported_cycles()
    pruned = {frozenset(c.locks): c.pruned_by for c in a.search.cycles}
    assert pruned == {frozenset({"m2", "m3"}): "gatelock",
                      frozenset({"m4", "m5"}): "create_join"}
    assert dt < 1.0
    print(f"\nACCEPTANCE 1 PASS: flagship example proved deadlock-free, "
          f"2 pruned cycles (gatelock, create_join), {dt:.3f}s")


def test_criterion_2_seeded_deadlocks_reported_and_confirmed():
    t0 = time.perf_counter()
    for name in MUTANTS:
        icfa = icfa_of(load(name + ".mc"))
        a = analyze_icfa(icfa)
        reported = a.reported_cycles()
        assert reported, f"{name}: no reported cycle"
        res = run_oracle(icfa)
        assert res.witnesses, f"{name}: oracle found no deadlock"
        assert any(cycle_confirmed(c, res) for c in reported), \
            f"{name}: no reported cycle matches a concrete deadlock"
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"\nACCEPTANCE 2 PASS: 8/8 seeded deadlocks reported and "
          f"oracle-confirmed in {dt:.1f}s")


def test_criterion_3_soundness_sweep(corpus_sweep):
    s = corpus_sweep
    assert len(s.sources) == CORPUS_SIZE
    assert s.thm1 == [], s.thm1[:5]
    assert s.thm2 == [], s.thm2[:5]
    assert s.mislabelled == [], s.mislabelled[:5]
    assert s.labelled == CORPUS_SIZE
    assert s.runtime < 600.0
    print(f"\nACCEPTANCE 3 PASS: {CORPUS_SIZE} programs, 0 may-lockset "
          f"violations, 0 missed deadlocks ({s.truncated} truncated, "
          f"{s.unsupported} skipped as unsupported), oracle facts equal to "
          f"the labels on {s.labelled}, {s.runtime:.0f}s")


def test_criterion_4_must_locksets_sound(corpus_sweep):
    s = corpus_sweep
    assert s.must == [], s.must[:5]
    print(f"\nACCEPTANCE 4 PASS: must-locksets held on every concrete "
          f"arrival across {len(s.sources)} programs")


def test_precision_ratchet(corpus_sweep):
    # the sweep's verdicts, classified by label as tools/precision.py does
    labels = load_labels()
    assert corpus_sweep.verdicts.keys() == labels.keys()
    counts = Counter((label_of(labels[k]), v)
                     for k, v in corpus_sweep.verdicts.items())
    deadlocks = sum(n for (lab, _), n in counts.items() if lab == "deadlock")
    reported = counts["deadlock", POTENTIAL]
    false_alarms = counts["free", POTENTIAL]
    proved = counts["free", PROVED_FREE]
    assert deadlocks == 123 and reported == deadlocks
    assert false_alarms <= FALSE_ALARMS_AT_MOST
    assert proved >= PROVED_AT_LEAST
    print(f"\nPRECISION PASS: {reported} of {deadlocks} labelled deadlocks "
          f"reported, {false_alarms} false alarms (at most "
          f"{FALSE_ALARMS_AT_MOST}), {proved} free programs proved (at least "
          f"{PROVED_AT_LEAST})")


def test_criterion_5_nonconcurrency_sound():
    rng = random.Random(99)
    programs = checked_pairs = pruned_pairs = 0
    violations: list[str] = []
    seed = 1000
    while programs < 50 and seed < 1100:
        src = generate(seed, random_config(seed))
        seed += 1
        icfa = icfa_of(src)
        a = analyze_icfa(icfa)
        try:
            res = run_oracle(icfa, max_states=ORACLE_BUDGET)
        except OracleUnsupported:
            continue
        if res.truncated or a.nonconc is None:
            continue  # absence of a co-pair is only meaningful exhaustively
        programs += 1
        universe = list(a.locks.may.places.places())
        for _ in range(1000):
            p1, p2 = rng.choice(universe), rng.choice(universe)
            checked_pairs += 1
            reason = a.nonconc.check(p1, p2)
            if reason is None:
                continue
            pruned_pairs += 1
            pair = (p1, p2) if p1 <= p2 else (p2, p1)
            if pair in res.copairs:
                violations.append(
                    f"[seed {seed - 1}] {p1}/{p2} pruned as {reason} "
                    "but co-occupied")
    assert programs == 50
    assert pruned_pairs >= 100  # the claim must not hold vacuously
    assert violations == [], violations[:5]
    print(f"\nACCEPTANCE 5 PASS: {checked_pairs} random place pairs over "
          f"{programs} programs, {pruned_pairs} non-concurrency claims, "
          f"0 contradicted")


def _seed_value_sets(a):
    """Value sets of every pointer-typed sync operand, per solved place."""
    out = {}
    for p in a.locks.may.places.by_id:
        for e in a.icfa.out_edges[p[-1]]:
            if isinstance(e.op, (LockStmt, UnlockStmt)):
                exprs = [e.op.arg]
            elif isinstance(e.op, CreateStmt):
                exprs = [e.op.tid]
            else:
                continue
            for k, x in enumerate(exprs):
                vs = a.pt.value_set(p, x, at_sync=True)
                out[(p, e.idx, k)] = \
                    "*" if vs is STAR else frozenset(map(repr, vs))
    return out


def test_criterion_6_dependency_pruning_equivalent_and_cheaper(corpus_sweep):
    for i, src in enumerate(corpus_sweep.sources):
        icfa = icfa_of(src)
        with_dep = analyze_icfa(icfa)
        without = analyze_icfa(icfa, Config(no_depend=True))
        assert _seed_value_sets(with_dep) == _seed_value_sets(without), \
            f"seed expression value sets differ on corpus program {i}"
    visits_with = visits_without = 0
    for seed in range(25):
        src = generate(seed, GenConfig(wrappers=True, noise=True))
        icfa = icfa_of(src)
        visits_with += analyze_icfa(icfa).stats["binding_applications"]
        visits_without += analyze_icfa(
            icfa, Config(no_depend=True)).stats["binding_applications"]
    drop = (visits_without - visits_with) / visits_without
    assert drop >= 0.20
    print(f"\nACCEPTANCE 6 PASS: identical sync-operand value sets on "
          f"{len(corpus_sweep.sources)} programs; pointer-transfer "
          f"applications drop {drop:.0%} on the wrapper-heavy subset")


def test_criterion_7_closure_links_unresolved_acquisitions():
    rng = random.Random(13)
    universe = ["l0", "l1", "l2", "l3", "l4"]
    P, Q = ("p",), ("q",)

    def concretize(ls):
        return set(universe) if STAR in ls else set(ls)

    done = 0
    while done < 10_000:
        sets = [frozenset(rng.sample(universe + [STAR], rng.randint(1, 3)))
                for _ in range(4)]
        ls1, ls2, ls3, ls4 = sets
        if not (concretize(ls2) & concretize(ls3)):
            continue  # premise: the two acquisitions may be the same lock
        done += 1
        L = frozenset({(a, P, b) for a in ls1 for b in ls2}
                      | {(a, Q, b) for a in ls3 for b in ls4})
        closed = close_triples(L)
        linkers = triple_locks(L) | {STAR}
        for l1 in ls1:
            for l2 in ls4:
                assert any((l1, P, x) in closed and (x, Q, l2) in closed
                           for x in linkers), (ls1, ls2, ls3, ls4, l1, l2)
    print(f"\nACCEPTANCE 7 PASS: {done} randomized closure instances all "
          "admit the held->linker->acquired two-edge path")


def _random_fpm(rng):
    return {v: rng.choice(["f", "g", "h", DIRTY])
            for v in "abcd" if rng.random() < 0.6}


def _random_lockset(rng, objs):
    return frozenset(o for o in objs if rng.random() < 0.4)


def test_criterion_8_join_algebra_and_order_independence():
    rng = random.Random(21)
    for _ in range(10_000):
        a, b, c = _random_fpm(rng), _random_fpm(rng), _random_fpm(rng)
        assert join_fp(a, b) == join_fp(b, a)
        assert join_fp(join_fp(a, b), c) == join_fp(a, join_fp(b, c))
        assert join_fp(a, a) == a

    objs = [GlobalObj(f"m{k}") for k in range(4)] + [STAR]
    may, must = MayLockset(None), MustLockset(None)
    for join in (may.join, must.join):
        for _ in range(10_000):
            a, b, c = (_random_lockset(rng, objs) for _ in range(3))
            assert join(a, b) == join(b, a)
            assert join(join(a, b), c) == join(a, join(b, c))
            assert join(a, a) == a

    def by_place(locks):
        return {kind: {p: (s.fpm[pid], s.state[pid])
                       for pid, p in enumerate(s.places.by_id)}
                for kind, s in (("may", locks.may), ("must", locks.must))}

    diffs = 0
    for seed in range(100):
        icfa = icfa_of(generate(seed + 7000, random_config(seed + 7000)))
        model = ObjectModel(icfa)
        pt = PointsToResult(icfa, model, solve_fi(icfa, PointsToClient(model)))
        fifo = solve_locksets(icfa, pt)
        runs, orders = [by_place(fifo)], set()
        for shuffle in (5, 6):
            with shuffled_worklists(shuffle):
                locks = solve_locksets(icfa, pt)
            runs.append(by_place(locks))
            orders.add(tuple(locks.graph.places.by_id))
        # the random pops reach the places in another order than FIFO's
        assert orders - {tuple(fifo.graph.places.by_id)}, seed
        diffs += not runs[0] == runs[1] == runs[2]
    assert diffs == 0
    print("\nACCEPTANCE 8 PASS: 3 joins x 10000 algebra cases; fixpoints "
          "identical under FIFO and two shuffled worklists on 100 programs")


def test_criterion_9_context_sensitivity_regression():
    icfa = icfa_of(load("wrapper_ok.mc"))
    precise = analyze_icfa(icfa)
    merged = analyze_icfa(icfa, Config(ctx_insensitive=True))
    assert precise.verdict == PROVED_FREE
    assert merged.verdict == POTENTIAL
    spurious = merged.reported_cycles()
    assert spurious and all(set(c.locks) == {"ma", "mb"} for c in spurious)
    print("\nACCEPTANCE 9 PASS: per-call-site binding proves the wrapper "
          "free; merging contexts fabricates an ma/mb cycle")
