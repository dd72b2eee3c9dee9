"""lockhound benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The run builds its inputs from the seed,
measures whole passes over them until --seconds have passed (at least
MIN_PASSES), checks every output against its known answer, and prints a
human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 passes alternate between untraced and traced, and the metrics are
the per-layer spans and counters plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(BENCH)]

import lockhound  # noqa: E402
import lockhound.oracle  # noqa: E402
import networkx  # noqa: E402
from checks import check_deadlocks_reported  # noqa: E402
from lockhound import INCONCLUSIVE, analyze_source, report_text  # noqa: E402

import workloads  # noqa: E402
from tracer import NONCONC_REASONS, PIPELINE_SPANS, Tracer  # noqa: E402

SETUP_REPEATS = 7
# A plain run makes at least MIN_PASSES passes, and every program counts with
# the median of its samples, each scaled by the machine's speed (see Probe).
MIN_PASSES = 3
# Scaled times read in seconds of a machine on which one probe takes this.
REFERENCE_PROBE_S = 0.5e-3
# The probe is measured again before a sample once this much time has passed.
PROBE_EVERY_S = 0.05

# Spans every traced analysis must record, and the ones that only run where
# the lock graph has cycles to filter or where the oracle runs.
ANALYSIS_SPANS = ("pipeline.analyze", "pipeline.report", "locksets.may",
                  "locksets.must", *PIPELINE_SPANS.values())
EXTRA_SPANS = {"corpus": ("nonconc.check",), "scaled": ("nonconc.check",),
               "diamond": (), "oracle": ("nonconc.check", "oracle.run")}
# The layer spans must cover at least this share of the traced analyze time.
MIN_COVERAGE = 0.9

TIMES = {  # per-layer time metric -> span it sums (self time where marked)
    "frontend.parse_s": "frontend.parse",
    "frontend.preprocess_s": "frontend.preprocess",
    "frontend.build_icfa_s": "frontend.build_icfa",
    "depend.affecting_edges_s": "depend.affecting_edges",
    "pointsto.solve_fi_s": "pointsto.solve_fi",
    "locksets.solve_s": "locksets.solve",
    "locksets.may_s": "locksets.may",
    "locksets.must_s": "locksets.must",
    "nonconc.build_s": "nonconc.build",
    "nonconc.check_s": "nonconc.check",
    "lockgraph.build_s": "lockgraph.build",
    "lockgraph.close_s": "lockgraph.close",
    "lockgraph.enumerate_s": "lockgraph.enumerate",
    "lockgraph.filter_s": "lockgraph.filter",  # self time
    "pipeline.analyze_s": "pipeline.analyze",
    "pipeline.report_s": "pipeline.report",
    "oracle.run_s": "oracle.run",
}
SELF_TIMES = {"lockgraph.filter_s"}
COUNTS = (
    "frontend.icfa_locations", "frontend.icfa_edges",
    "pointsto.steps", "pointsto.places_fi", "pointsto.binding_applications",
    "locksets.steps", "locksets.places_fs", "places.interns",
    "places.resolves", "nonconc.checks", "nonconc.memo_hits",
    *(f"nonconc.pruned.{r}" for r in NONCONC_REASONS),
    "lockgraph.edges", "lockgraph.closed_edges", "lockgraph.combos_seen",
    "lockgraph.cycles_reported", "lockgraph.truncated",
    "oracle.states", "oracle.witnesses", "oracle.truncated",
)


class BenchError(Exception):
    """The harness itself cannot produce a trustworthy result."""


# ------------------------------------------------------------------ set-up


class Setup:
    """Wall time for a fresh interpreter to `import lockhound`.

    One import is timed after every measured pass, so the samples spread over
    the whole run, and more after the last pass up to SETUP_REPEATS.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.times: list[float] = []
        self.sample()  # the first import may still be compiling bytecode
        self.times.clear()

    def sample(self) -> None:
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms and
        # the time is rounded up to the next poll.
        subprocess.run([sys.executable, "-c", "import lockhound"],
                       env=self.env, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t0)

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


class Probe:
    """The machine's speed at the moment, read from a fixed piece of work.

    On the shared 2-vCPU Xeon sandbox the benchmark was tuned on, the speed
    changes by up to 75% for seconds to minutes at a time, often for a whole
    run, and no minimum or median over the samples of one run removes that:
    over eight 15 s `corpus` runs the sum of per-program minima spread by
    0.20 (interquartile range over median) and ranged over 0.37. Divided by
    this probe, measured just before each sample, the sum of per-program
    medians spread by 0.037 and ranged over 0.046. The probe is a worklist
    fixpoint over small objects, lists, dicts and frozensets, the kind of
    work the analysis does; it calls nothing in lockhound, so a change to
    lockhound cannot change it.
    """

    def __init__(self):
        for _ in range(20):  # warm up before the first reading
            self.work()
        self.at = -PROBE_EVERY_S
        self.last = REFERENCE_PROBE_S

    @staticmethod
    def work() -> int:
        nodes = [_Node(k) for k in range(120)]
        for n in nodes:
            n.succ = [nodes[(n.k * 7 + 3) % 120], nodes[(n.k * 13 + 5) % 120]]
        for n in nodes[::9]:
            n.facts = frozenset({(n.k % 5, f"l{n.k % 3}")})
        worklist, seen = list(nodes), {}
        while worklist:
            n = worklist.pop()
            for m in n.succ:
                new = m.facts | n.facts
                if new != m.facts:
                    m.facts = new
                    worklist.append(m)
            key = (n.k, len(n.facts))
            seen[key] = seen.get(key, 0) + 1
        return len(seen)

    def seconds(self) -> float:
        """The current probe time: the fastest of three, re-measured once
        PROBE_EVERY_S has passed since the last reading."""
        if time.perf_counter() - self.at >= PROBE_EVERY_S:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                self.work()
                times.append(time.perf_counter() - t0)
            self.last = min(times)
            self.at = time.perf_counter()
        return self.last


class _Node:
    __slots__ = ("k", "succ", "facts")

    def __init__(self, k: int):
        self.k, self.succ, self.facts = k, [], frozenset()


# ------------------------------------------------------------------ a pass


class Run:
    """Per-program timings and check results over all passes of one run."""

    def __init__(self, name: str, programs: list[workloads.Program]):
        self.name = name
        self.programs = programs
        self.probe = Probe()
        # Scaled samples per program (see Probe), and unscaled oracle time.
        self.verdict_s: dict[str, list[float]] = {}
        self.oracle_s: dict[str, list[float]] = {}
        self.oracle_busy_s = 0.0
        self.oracle_states = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.decided: dict[str, bool] = {}
        self.first_outcome: dict[str, tuple] = {}
        self.passes = 0

    def fail(self, prog: workloads.Program, *why: str) -> None:
        """Count one failed operation and keep its reasons."""
        self.failed += 1
        self.failures += [f"{prog.name}: {w}" for w in why]

    def run_pass(self, tracer: Tracer | None) -> float:
        """Analyze (and on `oracle`, execute) every program once.

        Returns the seconds spent in lockhound; checks are not timed.
        """
        self.passes += 1
        busy = 0.0
        for prog in self.programs:
            a, dt = self.analyze(prog, tracer)
            if a is None:
                continue
            busy += dt
            if self.name == "oracle":
                busy += self.execute(prog, a)
        return busy

    def timed(self, fn):
        """Call fn() from a collected heap: (result, seconds, scaled seconds).

        The scale uses the mean of the probe times before and after the call;
        the probe is measured again after it only if the call was long.
        """
        before = self.probe.seconds()
        # Each call starts from a collected heap, as in a fresh `lockhound
        # analyze` process, so its time does not depend on the garbage that
        # the programs before it left behind.
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        probe = (before + self.probe.seconds()) / 2
        return result, dt, dt * REFERENCE_PROBE_S / probe

    def analyze(self, prog, tracer: Tracer | None):
        """One analysis and report: (Analysis or None on a crash, seconds)."""
        self.attempted += 1

        def verdict():
            if tracer is None:
                a = analyze_source(prog.source)
                return a, report_text(a)
            a = tracer.call("pipeline.analyze", analyze_source, prog.source)
            return a, tracer.call("pipeline.report", report_text, a)

        try:
            (a, report), dt, scaled = self.timed(verdict)
        except Exception as ex:  # a crash is a failed operation
            self.fail(prog, f"analysis raised {type(ex).__name__}: {ex}")
            return None, 0.0
        self.verdict_s.setdefault(prog.name, []).append(scaled)
        self.decided[prog.name] = a.verdict != INCONCLUSIVE and \
            not a.search.truncated
        bad = self.check_analysis(prog, a, report)
        if bad:
            self.fail(prog, *bad)
        return a, dt

    def execute(self, prog, a) -> float:
        """One oracle run on the analyzed program; returns its seconds."""
        self.attempted += 1
        try:
            res, dt, scaled = self.timed(lambda: lockhound.oracle.run_oracle(
                a.icfa, max_states=workloads.ORACLE_MAX_STATES,
                collect_copairs=False))
        except Exception as ex:
            self.fail(prog, f"oracle raised {type(ex).__name__}: {ex}")
            return 0.0
        self.oracle_s.setdefault(prog.name, []).append(scaled)
        self.oracle_busy_s += dt
        self.oracle_states += res.states
        bad = self.check_oracle(prog, a, res)
        if bad:
            self.fail(prog, *bad)
        return dt

    def check_analysis(self, prog, a, report: str) -> list[str]:
        bad = []
        if prog.expect is not None and a.verdict != prog.expect:
            bad.append(f"verdict {a.verdict}, known answer {prog.expect}")
        if prog.label and prog.label.get("witnesses") and \
                a.verdict == workloads.PROVED_FREE:
            bad.append("PROVED_DEADLOCK_FREE but the oracle found a deadlock")
        # Every analysis must reach the same verdict and report the same cycles.
        outcome = (a.verdict, report.rsplit("\ntime:", 1)[0])
        first = self.first_outcome.setdefault(prog.name, outcome)
        if outcome != first:
            bad.append("result differs from the first analysis")
        return bad

    @staticmethod
    def check_oracle(prog, a, res) -> list[str]:
        bad = [f"unsound: {v}" for v in check_deadlocks_reported(a, res)]
        got = workloads.oracle_fingerprint(res)
        ref = prog.label
        keys = ("states", "truncated") if ref["truncated"] else \
            ("states", "truncated", "arrivals", "arrivals_sha256", "witnesses")
        for k in keys:
            if got[k] != ref[k]:
                bad.append(f"oracle {k} {got[k]!r}, reference {ref[k]!r}")
        return bad


# --------------------------------------------------------------- measuring


def measure_plain(run: Run, setup: Setup, seconds: float) -> dict:
    start = time.perf_counter()
    while run.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run.run_pass(None)
        setup.sample()
    verdict_s = [statistics.median(ts) for ts in run.verdict_s.values()]
    oracle_s = [statistics.median(ts) for ts in run.oracle_s.values()]
    return {
        "wall_s": (sum(verdict_s) + sum(oracle_s), "s"),
        "verdict_ms_p50": (statistics.median(verdict_s) * 1000, "ms"),
        "verdict_ms_p98": (statistics.quantiles(
            verdict_s, n=50, method="inclusive")[-1] * 1000, "ms"),
        "decided_frac": (sum(run.decided.values()) / max(len(run.decided), 1),
                         "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup.median(), "s"),
    }


def measure_traced(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer medians per pass."""
    plain, traced, layers, counters = [], [], [], []
    cover = [0.0, 0.0]
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run.run_pass(None))
        with Tracer() as tr:
            traced.append(run.run_pass(tr))
        totals, selfs = tr.totals(), tr.self_times()
        layers.append({m: (selfs if m in SELF_TIMES else totals).get(s, 0.0)
                       for m, s in TIMES.items()})
        counters.append({k: tr.counts[k] for k in COUNTS})
        counters[-1]["depend.assigns"] = (tr.counts["depend.assigns_total"],
                                          tr.counts["depend.assigns_significant"])
        for i, v in enumerate(tr.child_cover("pipeline.analyze")):
            cover[i] += v
        missing = [s for s in ANALYSIS_SPANS + EXTRA_SPANS[run.name]
                   if s not in totals]
        if missing:
            raise BenchError(f"traced pass recorded no call of {missing}")
    if any(c != counters[0] for c in counters):
        raise BenchError("counters differ between traced passes of one run")
    if cover[1] < MIN_COVERAGE * cover[0]:
        raise BenchError(f"layer spans cover {cover[1] / cover[0]:.1%} of the "
                         f"analyze time, below {MIN_COVERAGE:.0%}")
    out = {m: (statistics.median(layer[m] for layer in layers), "s")
           for m in TIMES}
    c = counters[0]
    for k in COUNTS:
        out[k] = (c[k], "count")
    total, significant = c["depend.assigns"]
    out["depend.assign_fraction"] = (significant / total if total else 1.0,
                                     "ratio")
    oracle_s = out["oracle.run_s"][0]
    out["oracle.states_per_s"] = (c["oracle.states"] / oracle_s
                                  if oracle_s else 0.0, "1/s")
    out["trace.coverage"] = (cover[1] / cover[0], "ratio")
    out["trace.wall_s"] = (statistics.median(traced), "s")
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(plain), "s")
    return out


# ------------------------------------------------------------ environment


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "lockhound": lockhound.__version__,
        "commit": git_commit(),
    }


# -------------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    programs = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(args.workload, programs)
    # Leave the harness's own heap (modules, inputs, labels) out of every
    # later collection: collecting before each program then costs little.
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics = measure_traced(run, args.seconds)
    else:
        setup = Setup()
        metrics = measure_plain(run, setup, args.seconds)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]}
    if declared != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ declared)} are "
                         "not both measured and declared in BENCHMARK.json")

    info = machine()
    failed = run.failed
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"programs {len(programs)}  passes {run.passes}  "
          f"verdict samples {len(run.verdict_s)} (one per program)")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'setup_s (imports timed)':34s} {len(setup.times):14d}")
        if run.oracle_busy_s:
            print(f"  {'oracle_states_per_s':34s} "
                  f"{run.oracle_states / run.oracle_busy_s:14.6g} 1/s")
    print(f"  {'failed_frac':34s} {failed / run.attempted:14.6g} "
          f"({failed} of {run.attempted} operations)")
    for why in run.failures[:20]:
        print(f"  FAILED {why}")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        sys.exit(2)
