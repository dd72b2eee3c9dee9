"""How often lockhound's verdict agrees with the oracle on the corpus.

Run from the repository root:

    python3 tools/precision.py

Analyzes the 500 corpus programs of bench/workloads.py (imported read-only)
and prints a table of verdict counts per oracle label, read from
bench/corpus_labels.json: "deadlock" (the oracle found a witness), "free"
(the oracle explored every state and found none) or "truncated" (the oracle
ran out of states without a witness). Then it prints the deadlocks reported,
the false alarms (free programs with potential deadlocks) and the free
programs proved. It writes nothing.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from lockhound.pipeline import (  # noqa: E402
    INCONCLUSIVE, POTENTIAL, PROVED_FREE, analyze_source,
)
from workloads import CORPUS_SIZE, corpus_program, load_labels  # noqa: E402

LABELS = ("deadlock", "free", "truncated")
VERDICTS = (POTENTIAL, PROVED_FREE, INCONCLUSIVE)


def label_of(entry: dict) -> str:
    if entry["witnesses"]:
        return "deadlock"
    return "truncated" if entry["truncated"] else "free"


def main() -> None:
    labels = load_labels()
    counts: Counter[tuple[str, str]] = Counter()
    for k in range(CORPUS_SIZE):
        verdict = analyze_source(corpus_program(k)).verdict
        counts[label_of(labels[k]), verdict] += 1
    print(f"{'label':<10}" + "".join(f"{v:>22}" for v in VERDICTS))
    for lab in LABELS:
        print(f"{lab:<10}" + "".join(f"{counts[lab, v]:>22}" for v in VERDICTS))
    deadlocks = sum(counts["deadlock", v] for v in VERDICTS)
    print(f"deadlocks reported: {counts['deadlock', POTENTIAL]} of {deadlocks}")
    print(f"false alarms: {counts['free', POTENTIAL]}")
    print(f"proved: {counts['free', PROVED_FREE]}")


if __name__ == "__main__":
    main()
