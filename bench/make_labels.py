"""Record the oracle's answer for every default-seed corpus program.

    python3 bench/make_labels.py

Writes ``bench/corpus_labels.json``. It runs the exhaustive oracle on
generator seeds 0-499 with the acceptance suite's criterion-3 settings and
takes several minutes. Run it again only when the corpus definition or the
oracle's semantics change on purpose.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from lockhound.frontend import build_icfa, parse, preprocess  # noqa: E402
from lockhound.oracle import OracleUnsupported, run_oracle  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    programs: dict[str, dict] = {}
    for k in range(workloads.CORPUS_SIZE):
        icfa = build_icfa(preprocess(parse(workloads.corpus_program(k))))
        t0 = time.perf_counter()
        try:
            res = run_oracle(icfa, max_states=workloads.ORACLE_MAX_STATES,
                             collect_copairs=False)
        except OracleUnsupported as ex:
            programs[str(k)] = {"unsupported": str(ex)}
            continue
        entry = workloads.oracle_fingerprint(res)
        entry["oracle_s"] = round(time.perf_counter() - t0, 4)
        programs[str(k)] = entry
        print(k, entry["states"], entry["oracle_s"], flush=True)
    workloads.LABELS.write_text(json.dumps({
        "generator": "generate(k, random_config(k)) for k in 0..499",
        "max_states": workloads.ORACLE_MAX_STATES,
        "collect_copairs": False,
        "programs": programs,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
