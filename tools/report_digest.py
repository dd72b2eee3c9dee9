"""One sha256 over everything lockhound reports on the benchmark programs.

Run from the repository root:

    python3 tools/report_digest.py          # prints the digest
    python3 tools/report_digest.py --each   # one digest per program, then it
    python3 tools/report_digest.py --cycles # verdict and cycles per program

Two checkouts that print the same digest give byte-identical reports on the
10 fixtures, corpus seeds 0-499, the scaled seeds and the diamond depths
listed in bench/workloads.py (imported read-only), and on the scaled seeds
202 and 207 that the benchmark leaves out: their cycle searches end
truncated at the cycle cap, so their reports pin which cycles come first.
Per program the digest covers:

* report_text without its ``time:`` line,
* report_dict without ``timings``,
* the --dump-places, --dump-points-to, --dump-deps and --dump-locksets
  may/must output, which includes the place numbering,
* every solved state in place-id order: the may- and must-lockset places and
  the points-to contexts, each with its function-pointer map,
* the automaton as ICFA.to_dot renders it, with every edge's op as its
  label.

``--cycles`` prints, instead of the digest, one line per program: its
verdict, whether the cycle search was truncated, and the sorted lock lists
of the reported cycles, each list once. Two checkouts that report different
edge combinations for the same lock cycles print the same lines, so this
compares what they decide rather than how they show it.

Abstract objects are written by obj_label and sets are sorted, so the digest
does not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from lockhound.cli import _dumps  # noqa: E402
from lockhound.generator import generate  # noqa: E402
from lockhound.pipeline import analyze_source, report_dict, report_text  # noqa: E402
from lockhound.pointsto import STAR, TOP_STATE, obj_label  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_SIZE, SCALED_CONFIG, SCALED_SEEDS, corpus_program, diamond, fixtures,
)

BLOWUP_SEEDS = (202, 207)  # scaled seeds whose cycle search hits the cap


def programs() -> list[tuple[str, str]]:
    out = [(p.name, p.source) for p in fixtures()]
    out += [(f"corpus-{k}", corpus_program(k)) for k in range(CORPUS_SIZE)]
    out += [(f"scaled-{k}", generate(k, SCALED_CONFIG))
            for k in sorted([*SCALED_SEEDS, *BLOWUP_SEEDS])]
    out += [(p.name, p.source) for p in diamond(0)]
    return out


def _labels(objs) -> str:
    if objs is STAR:
        return "*"
    return "{" + ", ".join(sorted(obj_label(x) for x in objs)) + "}"


def _client_state(cs) -> str:
    if cs is TOP_STATE:
        return "TOP"
    if isinstance(cs, dict):  # points-to: cell -> value set
        return "{" + ", ".join(sorted(f"{obj_label(c)}: {_labels(v)}"
                                      for c, v in cs.items())) + "}"
    return _labels(cs)  # a lockset


def _states(name: str, solve) -> list[str]:
    lines = [f"## {name}: {len(solve.places)} places, {solve.steps} steps"]
    for pid, place in enumerate(solve.places.places()):
        fpm, cs = solve.fpm[pid], solve.state[pid]
        fp = ", ".join(f"{k}={v!r}" for k, v in sorted(fpm.items()))
        lines.append(f"{pid} {place} [{fp}] {_client_state(cs)}")
    return lines


def program_text(source: str) -> str:
    a = analyze_source(source)
    parts = [line for line in report_text(a).splitlines()
             if not line.startswith("time:")]
    d = report_dict(a)
    del d["timings"]
    parts.append(json.dumps(d, sort_keys=True, default=str))
    for which in ("may", "must"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _dumps(a, SimpleNamespace(
                dump_places=True, dump_points_to=True, dump_deps=True,
                dump_locksets=which, dump_nonconc=False))
        parts.append(buf.getvalue())
    if a.pt is not None:
        parts += _states("points-to", a.pt.solve)
    if a.locks is not None:
        parts += _states("may", a.locks.may) + _states("must", a.locks.must)
    parts.append(a.icfa.to_dot())
    return "\n".join(parts) + "\n"


def cycles_text(source: str) -> str:
    a = analyze_source(source)
    locks = sorted({" -> ".join(c.locks) for c in a.reported_cycles()})
    return f"{a.verdict} truncated={a.search.truncated} {locks}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--each", action="store_true",
                    help="also print one digest per program")
    ap.add_argument("--cycles", action="store_true",
                    help="print each program's verdict, truncation and "
                         "reported lock cycles instead of the digest")
    args = ap.parse_args()
    if args.cycles:
        for name, source in programs():
            print(f"{name} {cycles_text(source)}")
        return 0
    total = hashlib.sha256()
    for name, source in programs():
        text = f"# {name}\n{program_text(source)}".encode()
        total.update(text)
        if args.each:
            print(f"{hashlib.sha256(text).hexdigest()}  {name}")
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
