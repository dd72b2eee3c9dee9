"""End-to-end analysis pipeline and report shaping."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .collector import collector_paused
from .depend import DependResult, affecting_edges
from .errors import DivergedError
from .framework import solve_fi
from .frontend import build_icfa, parse, preprocess
from .frontend.icfa import ICFA
from .lockgraph import (
    CycleSearch, LockEdge, close_lock_edges, enumerate_cycles,
    build_lock_graph, filter_cycles,
)
from .locksets import LocksetResults, solve_locksets
from .nonconc import NonConcurrency
from .places import MAIN_THREAD, Place, get_thread
from .pointsto import ObjectModel, PointsToClient, PointsToResult, obj_label

PROVED_FREE = "PROVED_DEADLOCK_FREE"
POTENTIAL = "POTENTIAL_DEADLOCKS"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Config:
    no_depend: bool = False
    no_nonconc: bool = False
    ctx_insensitive: bool = False  # ablation: merge pointer contexts
    cycle_cap: int = 2000


@dataclass
class Analysis:
    """Everything the pipeline computed, for programmatic consumers.

    When a fixpoint diverges the run ends INCONCLUSIVE with `error` set: pt
    and locks are then None, or just locks when only the lockset step
    diverged.
    """
    icfa: ICFA
    depend: DependResult | None
    pt: PointsToResult | None
    locks: LocksetResults | None
    nonconc: NonConcurrency | None
    lock_edges: list[LockEdge]
    search: CycleSearch
    verdict: str
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    error: str | None = None

    def reported_cycles(self):
        return [c for c in self.search.cycles if c.pruned_by is None]


@collector_paused()
def analyze_source(source: str, cfg: Config | None = None) -> Analysis:
    cfg = cfg if cfg is not None else Config()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    prog = preprocess(parse(source))
    icfa = build_icfa(prog)
    timings["frontend"] = time.perf_counter() - t0
    # the collector is paused already: skip analyze_icfa's own pause
    return analyze_icfa.__wrapped__(icfa, cfg, timings)


@collector_paused()
def analyze_icfa(icfa: ICFA, cfg: Config | None = None,
                 timings: dict[str, float] | None = None) -> Analysis:
    cfg = cfg if cfg is not None else Config()
    timings = timings if timings is not None else {}
    warnings = list(icfa.warnings)

    t0 = time.perf_counter()
    dep = None if cfg.no_depend else affecting_edges(icfa)
    timings["depend"] = time.perf_counter() - t0

    model = ObjectModel(icfa)
    client = PointsToClient(model)
    t0 = time.perf_counter()
    try:
        fi = solve_fi(icfa, client,
                      edge_filter=dep.allows if dep is not None else None)
    except DivergedError as ex:
        return _aborted(icfa, dep, None, warnings, timings,
                        f"pointer analysis: {ex}")
    timings["pointsto"] = time.perf_counter() - t0
    pt = PointsToResult(icfa, model, fi, merge_contexts=cfg.ctx_insensitive)

    t0 = time.perf_counter()
    try:
        locks = solve_locksets(icfa, pt)
    except DivergedError as ex:
        return _aborted(icfa, dep, pt, warnings, timings,
                        f"lockset analysis: {ex}")
    timings["locksets"] = time.perf_counter() - t0
    for s in locks.self_locks:
        warnings.append(
            f"line {s.line}: lock() on {obj_label(s.lock)} already held "
            "on every path here (certain self-deadlock)")

    t0 = time.perf_counter()
    nc = None if cfg.no_nonconc else NonConcurrency(icfa, locks, pt)
    edges = build_lock_graph(locks)
    # Enumerate over the STAR-closed graph; report the raw edges themselves.
    search = enumerate_cycles(close_lock_edges(edges), cap=cfg.cycle_cap)
    filter_cycles(search, nc)
    timings["lockgraph"] = time.perf_counter() - t0

    if search.truncated:
        warnings.append(
            f"cycle search examined {cfg.cycle_cap} edge combinations; "
            "results were truncated (EXPLOSION)")
    reported = [c for c in search.cycles if c.pruned_by is None]
    if reported:
        verdict = POTENTIAL
    elif search.truncated:
        verdict = INCONCLUSIVE
    else:
        verdict = PROVED_FREE

    stats = {
        "locations": len(icfa.locations),
        "edges": len(icfa.edges),
        "places_fs": len(locks.may.places),
        "places_fi": len(fi.places),
        "pointsto_steps": fi.steps,
        "lockset_steps": locks.may.steps + locks.must.steps,
        "binding_applications": client.visits,
        "lock_graph_edges": len(edges),
        "cycles_examined": len(search.cycles),
        "cycles_reported": len(reported),
        "cycles_pruned": len(search.cycles) - len(reported),
        "combinations_examined": search.combos_seen,
        "lock_places": len(locks.lock_places),
        "self_locks": len(locks.self_locks),
    }
    if dep is not None:
        stats["depend"] = dep.stats

    return Analysis(icfa, dep, pt, locks, nc, edges, search, verdict,
                    warnings, timings, stats)


def _aborted(icfa, dep, pt, warnings, timings, msg) -> Analysis:
    return Analysis(icfa, dep, pt, None, None, [], CycleSearch(), INCONCLUSIVE,
                    warnings + [msg], timings, {}, error=msg)


# ------------------------------------------------------------------ report


def place_str(icfa: ICFA, p: Place) -> str:
    return " > ".join(f"{icfa.func_of(loc)}:{icfa.line_of(loc)}" for loc in p)


def thread_str(icfa: ICFA, t: Place) -> str:
    if t == MAIN_THREAD:
        return "main"
    site = t[-1]
    return f"thread@{icfa.func_of(site)}:{icfa.line_of(site)}"


def _place_labels(icfa: ICFA, cycles) -> dict[Place, tuple[str, str]]:
    """The call string and thread name of each place on the cycles, each
    formatted once."""
    return {p: (place_str(icfa, p),
                thread_str(icfa, get_thread(p, icfa.create_sites)))
            for p in {e.place for c in cycles for e in c.edges}}


def report_dict(a: Analysis) -> dict:
    labels = _place_labels(a.icfa, a.search.cycles)
    order = sorted(a.search.cycles,
                   key=lambda c: (c.pruned_by is not None, c.locks,
                                  [e.place for e in c.edges]))
    cycles = [{
        "locks": list(c.locks),
        "places": [{"callString": labels[e.place][0],
                    "threadId": labels[e.place][1]} for e in c.edges],
        "pruned_by": c.pruned_by,
    } for c in order]
    return {
        "verdict": a.verdict,
        "cycles": cycles,
        "warnings": a.warnings,
        "stats": a.stats,
        "timings": {k: round(v, 6) for k, v in a.timings.items()},
        "error": a.error,
    }


def report_text(a: Analysis, color: bool = False) -> str:
    def paint(s: str, code: str) -> str:
        return f"\x1b[{code}m{s}\x1b[0m" if color else s

    lines = []
    v = a.verdict
    shade = {"PROVED_DEADLOCK_FREE": "32", "POTENTIAL_DEADLOCKS": "31"}.get(v, "33")
    lines.append(paint(f"verdict: {v}", shade))
    reported = a.reported_cycles()
    pruned = [c for c in a.search.cycles if c.pruned_by is not None]
    lines.append(f"lock graph: {len(a.lock_edges)} edge(s); "
                 f"{len(a.search.cycles)} cycle candidate(s), "
                 f"{len(reported)} reported, {len(pruned)} pruned")
    labels = _place_labels(a.icfa, reported)
    for i, c in enumerate(sorted(reported, key=lambda c: c.locks)):
        lines.append(paint(f"  cycle {i + 1}: locks {' -> '.join(c.locks)}", "31"))
        for j, e in enumerate(c.edges):
            at, t = labels[e.place]
            lines.append(f"    holds {c.locks[j - 1]}, wants {c.locks[j]} "
                         f"at {at} [{t}]")
    for c in pruned:
        lines.append(f"  pruned ({c.pruned_by}): locks {' -> '.join(c.locks)}")
    for w in a.warnings:
        lines.append(paint(f"warning: {w}", "33"))
    if a.timings:
        total = sum(a.timings.values())
        lines.append(f"time: {total:.3f}s ("
                     + ", ".join(f"{k} {v:.3f}s" for k, v in a.timings.items())
                     + ")")
    return "\n".join(lines) + "\n"
