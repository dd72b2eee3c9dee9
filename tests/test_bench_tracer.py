"""The benchmark's traced mode reads the pipeline it times.

bench/tracer.py, imported read-only as criterion 3 imports
bench/workloads.py, swaps lockhound's public names for timing wrappers. A
change that renames one of them, or moves work out of the call a span
wraps, shows here rather than as a failing benchmark run.
"""

import sys
from pathlib import Path

import lockhound.framework
import lockhound.oracle
import lockhound.pipeline
from lockhound.nonconc import NonConcurrency
from lockhound.pipeline import analyze_source
from lockhound.places import PlaceMap

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracer import PIPELINE_SPANS, Tracer  # noqa: E402

PATCHED = [(lockhound.pipeline, name) for name in PIPELINE_SPANS] + [
    (lockhound.framework, "solve_fs"), (lockhound.oracle, "run_oracle"),
    (NonConcurrency, "check"), (PlaceMap, "intern"), (PlaceMap, "resolve"),
]


def test_tracer_records_every_layer_of_the_showcase(showcase_source):
    originals = [getattr(owner, name) for owner, name in PATCHED]
    with Tracer() as tracer:
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in zip(PATCHED, originals))
        analyze_source(showcase_source)
    assert all(getattr(owner, name) is fn
               for (owner, name), fn in zip(PATCHED, originals))
    spans = {s.name for s in tracer.spans}
    assert {*PIPELINE_SPANS.values(), "locksets.may", "locksets.must"} <= spans
    counts = {k: tracer.counts[k] for k in (
        "places.interns", "places.resolves", "locksets.steps",
        "locksets.places_fs")}
    assert counts == {"places.interns": 35, "places.resolves": 3,
                      "locksets.steps": 58, "locksets.places_fs": 29}
