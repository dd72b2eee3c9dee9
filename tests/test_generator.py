"""Seeded program generator: validity, determinism, and corpus diversity."""

from conftest import icfa_of, oracle_of
from lockhound.generator import GenConfig, generate, generate_corpus, random_config
from lockhound.pipeline import analyze_icfa


def test_generation_is_deterministic_per_seed():
    for seed in range(25):
        cfg = random_config(seed)
        assert generate(seed, cfg) == generate(seed, cfg)
    assert generate_corpus(10, base_seed=3) == generate_corpus(10, base_seed=3)
    assert generate(1) != generate(2)


def test_corpus_parses_and_analyzes():
    for src in generate_corpus(60):
        a = analyze_icfa(icfa_of(src))
        assert a.error is None
        assert a.verdict in ("PROVED_DEADLOCK_FREE", "POTENTIAL_DEADLOCKS",
                             "INCONCLUSIVE")


def test_programs_stay_within_configured_bounds():
    cfg = GenConfig(max_threads=2, max_locks=3)
    for seed in range(30):
        src = generate(seed, cfg)
        assert src.count("create(") <= 2 or "for" in src  # loop re-creates
        icfa = icfa_of(src)
        assert len(icfa.create_sites) <= 2


def test_corpus_is_well_defined_for_the_executor():
    # The generator promises defined behavior: no run may hit a fault.
    checked = 0
    for src in generate_corpus(40):
        res = oracle_of(src)
        if res is None or res.truncated:
            continue
        checked += 1
        assert res.ub_events == 0, src
        assert res.terminals >= 1 or res.witnesses, src
    assert checked >= 20


def test_corpus_exercises_both_outcomes():
    verdicts = {"deadlock": 0, "free": 0}
    for src in generate_corpus(40):
        res = oracle_of(src)
        if res is None or res.truncated:
            continue
        verdicts["deadlock" if res.witnesses else "free"] += 1
    assert verdicts["deadlock"] >= 5
    assert verdicts["free"] >= 5


def test_star_knob_introduces_unresolved_locks():
    hits = 0
    for seed in range(12):
        src = generate(seed, GenConfig(star=True))
        a = analyze_icfa(icfa_of(src))
        if any(repr(e.acquired) == "*" or repr(e.held) == "*"
               for e in a.lock_edges):
            hits += 1
    assert hits >= 1
