"""Run the benchmark over several seeds and summarise it as BENCH_<label>.json.

    python3 bench/sweep.py --label baseline --seeds 0-9

Every run is a separate ``bench/run.py`` process, one after another, with the
run length that BENCHMARK.json fixes. For each workload and end-to-end metric
the summary holds the median, the quartiles and the spread (interquartile
range over median) across seeds; the traced runs (two per workload, on the
first seed) add per-layer medians, the tracing overhead, and whether their
counters repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    """One benchmark process: (its JSON result with elapsed_s, summary)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result, lines[:-1]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    args = ap.parse_args()

    summary: dict = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for w in [m["name"] for m in SPEC["workloads"]]:
        plain = []
        for seed in args.seeds:
            result, text = run(w, seed, 0)
            summary.setdefault("machine", dict(
                kv.split("=", 1)
                for kv in text[1].removeprefix("machine ").split("  ")))
            plain.append(result)
            print(w, seed, json.dumps(result), flush=True)
        row: dict = {
            "runs": len(plain),
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "correct": all(r["correct"] for r in plain),
            "elapsed_s": [r["elapsed_s"] for r in plain],
            "end_to_end": {},
        }
        for m in SPEC["end_to_end"]:
            row["end_to_end"][m["name"]] = {
                "unit": m["unit"], "bound": m["bound"],
                **spread([r["metrics"][m["name"]]["value"] for r in plain])}
        traced = [run(w, args.seeds[0], 1)[0] for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] == "count"} for t in traced]
        row["traced"] = {
            "seed": args.seeds[0],
            "elapsed_s": [t["elapsed_s"] for t in traced],
            "counters_repeat": counts[0] == counts[1],
            "per_layer": {k: statistics.median(t["metrics"][k]["value"]
                                               for t in traced)
                          for k in traced[0]["metrics"]},
        }
        row["traced"]["overhead_s"] = row["traced"]["per_layer"][
            "trace.overhead_s"]
        summary["workloads"][w] = row
        print(w, json.dumps({k: round(v["spread"], 4)
                             for k, v in row["end_to_end"].items()}),
              flush=True)
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print("wrote", out)


if __name__ == "__main__":
    main()
