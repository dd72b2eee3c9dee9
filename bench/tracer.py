"""Outside-in tracing of lockhound's layers.

The tracer replaces public names of lockhound modules with timing wrappers
for the duration of a ``with Tracer():`` block and restores them afterwards.
Nothing inside lockhound changes: spans sit at the calls the pipeline makes
into each layer, and counters are read from the values those calls return.

A span records its name, start, end and the index of its parent span, so a
layer's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter
from dataclasses import dataclass

import lockhound.framework
import lockhound.oracle
import lockhound.pipeline
from lockhound.locksets import MayLockset
from lockhound.nonconc import NonConcurrency
from lockhound.places import PlaceMap

# Names the pipeline imports, with the span each call is recorded as.
PIPELINE_SPANS = {
    "parse": "frontend.parse",
    "preprocess": "frontend.preprocess",
    "build_icfa": "frontend.build_icfa",
    "affecting_edges": "depend.affecting_edges",
    "solve_fi": "pointsto.solve_fi",
    "solve_locksets": "locksets.solve",
    "NonConcurrency": "nonconc.build",
    "build_lock_graph": "lockgraph.build",
    "close_lock_edges": "lockgraph.close",
    "enumerate_cycles": "lockgraph.enumerate",
    "filter_cycles": "lockgraph.filter",
}

NONCONC_REASONS = ("gatelock", "create_join", "single_thread", "unreached")


def _lockset_span(args) -> str:
    """solve_fs runs once per lockset client; name the span after it."""
    return "locksets.may" if isinstance(args[1], MayLockset) else "locksets.must"


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counters for everything run inside the ``with`` block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # place pairs each NonConcurrency was already asked about
        self._asked: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ---------------------------------------------------------- recording

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kw):
        i = self.begin(name)
        try:
            return fn(*args, **kw)
        finally:
            self.end(i)

    # -------------------------------------------------------------- views

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time of direct children."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return dict(out)

    def child_cover(self, name: str) -> tuple[float, float]:
        """(seconds of all `name` spans, seconds their direct children cover)."""
        total = covered = 0.0
        index = {i for i, s in enumerate(self.spans) if s.name == name}
        for i, s in enumerate(self.spans):
            if i in index:
                total += s.end - s.start
            elif s.parent in index:
                covered += s.end - s.start
        return total, covered

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        pipeline = lockhound.pipeline
        for attr, name in PIPELINE_SPANS.items():
            self._patch(pipeline, attr, self._wrapper(
                name, getattr(pipeline, attr), getattr(self, "_count_" + attr,
                                                       None)))
        self._patch(lockhound.framework, "solve_fs",
                    self._wrapper(_lockset_span, lockhound.framework.solve_fs,
                                  self._count_solve_fs))
        self._patch(lockhound.oracle, "run_oracle",
                    self._wrapper("oracle.run", lockhound.oracle.run_oracle,
                                  self._count_run_oracle))
        self._patch(NonConcurrency, "check", self._check_wrapper(
            NonConcurrency.check))
        for method in ("intern", "resolve"):
            self._patch(PlaceMap, method, self._counting_wrapper(
                "places." + method + "s", getattr(PlaceMap, method)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, fn, count):
        """Time calls of fn as span `name` (or name(args) when callable)."""
        tracer = self

        def traced(*args, **kw):
            i = tracer.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kw)
            finally:
                tracer.end(i)
            if count is not None:
                count(out, *args)
            return out
        return traced

    def _check_wrapper(self, check):
        tracer = self

        def traced(nc, p1, p2):
            tracer.counts["nonconc.checks"] += 1
            asked = tracer._asked.setdefault(nc, set())
            key = frozenset((p1, p2))
            if key in asked:
                tracer.counts["nonconc.memo_hits"] += 1
            asked.add(key)
            i = tracer.begin("nonconc.check")
            try:
                reason = check(nc, p1, p2)
            finally:
                tracer.end(i)
            if reason is not None:
                tracer.counts["nonconc.pruned." + reason] += 1
            return reason
        return traced

    def _counting_wrapper(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    # ------------------------------------------ counters read from results

    def _count_build_icfa(self, icfa, *_):
        self.counts["frontend.icfa_locations"] += len(icfa.locations)
        self.counts["frontend.icfa_edges"] += len(icfa.edges)

    def _count_affecting_edges(self, dep, *_):
        self.counts["depend.assigns_total"] += dep.stats["assigns_total"]
        self.counts["depend.assigns_significant"] += \
            dep.stats["assigns_significant"]

    def _count_solve_fi(self, res, icfa, client, *_):
        self.counts["pointsto.steps"] += res.steps
        self.counts["pointsto.places_fi"] += len(res.places)
        self.counts["pointsto.binding_applications"] += client.visits

    def _count_solve_locksets(self, locks, *_):
        self.counts["locksets.places_fs"] += len(locks.may.places)

    def _count_solve_fs(self, res, *_):
        self.counts["locksets.steps"] += res.steps

    def _count_build_lock_graph(self, edges, *_):
        self.counts["lockgraph.edges"] += len(edges)

    def _count_close_lock_edges(self, edges, *_):
        self.counts["lockgraph.closed_edges"] += len(edges)

    def _count_enumerate_cycles(self, search, *_):
        self.counts["lockgraph.combos_seen"] += search.combos_seen
        self.counts["lockgraph.truncated"] += search.truncated

    def _count_filter_cycles(self, _, search, *__):
        self.counts["lockgraph.cycles_reported"] += sum(
            1 for c in search.cycles if c.pruned_by is None)

    def _count_run_oracle(self, res, *_):
        self.counts["oracle.states"] += res.states
        self.counts["oracle.witnesses"] += len(res.witnesses)
        self.counts["oracle.truncated"] += res.truncated
