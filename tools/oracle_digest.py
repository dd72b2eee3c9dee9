"""One sha256 over every fact the exhaustive oracle reports.

Run from the repository root:

    python3 tools/oracle_digest.py           # prints the digest
    python3 tools/oracle_digest.py --each    # one digest per program, then it
    python3 tools/oracle_digest.py --golden tests/fixtures/oracle_facts.json

The digest covers the 10 fixtures and corpus seeds 0-499 of
bench/workloads.py (imported read-only), run with max_states=20,000 and
copairs collected. Per program it hashes tests/checks.oracle_facts: states,
terminals, ub_events, truncated, arrivals, copairs, rw, serial_sites and the
witnesses with their cycles and schedules. Programs the oracle rejects hash
as "unsupported". Two checkouts that print the same digest report the same
oracle facts; the facts are written canonically, so the digest does not
depend on PYTHONHASHSEED.

--golden writes the facts of the fixtures and of test_oracle.UB_PROGRAMS,
run with the oracle's default settings, to the given file; test_oracle
compares against it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

from checks import oracle_facts  # noqa: E402
from lockhound.frontend import build_icfa, parse, preprocess  # noqa: E402
from lockhound.oracle import OracleUnsupported, run_oracle  # noqa: E402
from workloads import CORPUS_SIZE, corpus_program, fixtures  # noqa: E402


def facts(source: str, **kw) -> dict | str:
    try:
        return oracle_facts(run_oracle(build_icfa(preprocess(parse(source))), **kw))
    except OracleUnsupported:
        return "unsupported"


def write_golden(path: Path) -> None:
    from test_oracle import UB_PROGRAMS
    programs = [(p.name, p.source) for p in fixtures()] + list(UB_PROGRAMS.items())
    lines = [f"{json.dumps(name)}: {json.dumps(facts(source), sort_keys=True)}"
             for name, source in sorted(programs)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # a program a line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--each", action="store_true",
                    help="also print one digest per program")
    ap.add_argument("--golden", type=Path,
                    help="write the golden facts file instead")
    args = ap.parse_args()
    if args.golden:
        write_golden(args.golden)
        return 0
    programs = [(p.name, p.source) for p in fixtures()]
    programs += [(f"corpus-{k}", corpus_program(k)) for k in range(CORPUS_SIZE)]
    total = hashlib.sha256()
    for name, source in programs:
        text = f"# {name}\n{json.dumps(facts(source, max_states=20_000), sort_keys=True)}\n"
        total.update(text.encode())
        if args.each:
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
