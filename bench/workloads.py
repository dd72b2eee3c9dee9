"""Inputs and known answers for the benchmark workloads.

Every input is a pure function of the workload seed. Known answers come from
construction (the diamond ladder, the fixtures) or from the exhaustive oracle
run once over the default corpus (``corpus_labels.json``), never from the
analyzer under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from lockhound.generator import GenConfig, generate, random_config
from lockhound.pointsto import obj_label

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "tests" / "fixtures"
LABELS = HERE / "corpus_labels.json"

PROVED_FREE = "PROVED_DEADLOCK_FREE"

CORPUS_SIZE = 500
# Criterion 3 of the acceptance suite runs the oracle with these settings.
ORACLE_MAX_STATES = 100_000

# The ROADMAP's scaled generator tier, seeds 200-215 without 202 and 207.
# Those two are the cycle-search blow-up (about 1.27M node cycles, 10-16 s
# each); as single 10-16 s samples they swung by 0.27 of their median across
# runs on a shared 2-vCPU machine, beyond any allowed bound. Later seeds of
# the tier are worse (238 runs 90 s, 240 exhausts 4 GB).
SCALED_CONFIG = GenConfig(max_threads=20, max_locks=16, wrappers=True,
                          heap=True, loop_create=True, max_regions=8,
                          max_depth=3)
SCALED_SEEDS = [k for k in range(200, 216) if k not in (202, 207)]

# The oracle workload is a fixed sample of the labelled corpus: every tenth
# program, in order of reference states, among those below
# ORACLE_LIGHT_STATES. The 41 programs above it take 1.5-14 s each, longer
# than a measured pass should be; Tier-1 criterion 3 still runs them.
ORACLE_LIGHT_STATES = 20_000
ORACLE_STRIDE = 10

DIAMOND_DEPTHS = (9, 10, 11)

FIXTURE_ANSWERS = {
    "showcase.mc": PROVED_FREE,
    "wrapper_ok.mc": PROVED_FREE,
    **{f"mutant_{m}.mc": "POTENTIAL_DEADLOCKS" for m in (
        "nogate", "nojoin", "double", "ring", "heap", "wrapper",
        "loop_create", "branch_join")},
}


@dataclass
class Program:
    """One input: its name, source text and whatever known answer it has."""
    name: str
    source: str
    expect: str | None = None  # verdict known by construction
    label: dict | None = None  # oracle reference, when one was recorded


def corpus_program(k: int) -> str:
    return generate(k, random_config(k))


def load_labels() -> dict[int, dict]:
    data = json.loads(LABELS.read_text())
    return {int(k): v for k, v in data["programs"].items()}


def fixtures() -> list[Program]:
    return [Program(name, (FIXTURES / name).read_text(), expect)
            for name, expect in sorted(FIXTURE_ANSWERS.items())]


def corpus(seed: int) -> list[Program]:
    """The fixtures plus the labelled 500-program corpus.

    The programs are the same for every seed, so every run checks them
    against their oracle labels; the seed only sets the order of analysis.
    """
    labels = load_labels()
    progs = fixtures() + [
        Program(f"corpus-{k}", corpus_program(k), label=labels[k])
        for k in range(CORPUS_SIZE)]
    random.Random(seed).shuffle(progs)
    return progs


def scaled(seed: int) -> list[Program]:
    """The fixed scaled tier; the seed only sets the order of analysis."""
    order = list(SCALED_SEEDS)
    random.Random(seed).shuffle(order)
    return [Program(f"scaled-{k}", generate(k, SCALED_CONFIG)) for k in order]


def diamond_source(depth: int, rng: random.Random) -> str:
    """Call diamond: f_i calls f_{i+1} twice, the deepest takes ma then mb.

    Main and one thread both call f0, so every acquisition happens in the
    same order and the program is deadlock-free by construction. The seed
    varies only names and the order of definitions, never the call graph,
    so the number of places is the same for every seed.
    """
    ma, mb = rng.sample([f"m{c}" for c in "abcdefgh"], 2)
    names = [f"f{i}_{rng.randrange(1000)}" for i in range(depth + 1)]
    defs = [[f"void {names[depth]}() {{", f"    lock(&{ma});",
             f"    lock(&{mb});", "    g = g + 1;", f"    unlock(&{mb});",
             f"    unlock(&{ma});", "}"]]
    defs += [[f"void {names[i]}() {{", f"    {names[i + 1]}();",
              f"    {names[i + 1]}();", "}"] for i in range(depth)]
    defs.append(["int worker(int a) {", f"    {names[0]}();", "    return a;",
                 "}"])
    defs.append(["int main() {", "    thread_t t;",
                 "    create(&t, worker, 0);", f"    {names[0]}();",
                 "    join(t);", "    return 0;", "}"])
    rng.shuffle(defs)
    lines = [f"mutex {ma};", f"mutex {mb};", "int g;"]
    for d in defs:
        lines += [""] + d
    return "\n".join(lines) + "\n"


def diamond(seed: int) -> list[Program]:
    rng = random.Random(seed)
    return [Program(f"diamond-{d}", diamond_source(d, rng), PROVED_FREE)
            for d in DIAMOND_DEPTHS]


def oracle(seed: int) -> list[Program]:
    """A fixed sample of the labelled corpus; the seed sets the order."""
    labels = load_labels()
    light = sorted((v["states"], k) for k, v in labels.items()
                   if v.get("states", ORACLE_LIGHT_STATES) < ORACLE_LIGHT_STATES)
    sample = [k for _, k in light[ORACLE_STRIDE // 2::ORACLE_STRIDE]]
    random.Random(seed).shuffle(sample)
    return [Program(f"corpus-{k}", corpus_program(k), label=labels[k])
            for k in sample]


WORKLOADS = {"corpus": corpus, "scaled": scaled, "diamond": diamond,
             "oracle": oracle}


def oracle_fingerprint(res) -> dict:
    """The oracle facts the soundness checks consume, in a stable form."""
    arrivals = sorted({repr((place, sorted(obj_label(o) for o in
                                           res.abstract_locks(cells))))
                       for place, cells in res.arrivals})
    witnesses = sorted({tuple(sorted(obj_label(o) for o in
                                     res.abstract_locks(w.lock_cells())))
                        for w in res.witnesses})
    return {
        "states": res.states,
        "truncated": res.truncated,
        "arrivals": len(arrivals),
        "arrivals_sha256": hashlib.sha256(
            "\n".join(arrivals).encode()).hexdigest(),
        "witnesses": [list(w) for w in witnesses],
    }
