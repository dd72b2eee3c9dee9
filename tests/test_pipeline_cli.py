"""End-to-end pipeline results, report formats, and the command line."""

import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lockhound.framework
import lockhound.pipeline
from conftest import FIXTURES, icfa_of, load
from lockhound.cli import _dumps, _want_color, main
from lockhound.errors import DivergedError, MissingMainError, SourceError
from lockhound.frontend import build_icfa
from lockhound.frontend.icfa import ICFA
from lockhound.frontend.parser import MAX_NESTING
from lockhound.generator import GenConfig, generate
from lockhound.locksets import MayLockset
from lockhound.oracle import run_oracle
from lockhound.pipeline import (
    INCONCLUSIVE, POTENTIAL, PROVED_FREE, Config, analyze_icfa,
    analyze_source, report_dict, report_text,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import diamond_source  # noqa: E402

SHOWCASE = str(FIXTURES / "showcase.mc")
NOGATE = str(FIXTURES / "mutant_nogate.mc")
RING = str(FIXTURES / "mutant_ring.mc")


# ----------------------------------------------------------------- pipeline


def test_analysis_stats_shape(showcase_source):
    a = analyze_source(showcase_source)
    for key in ("locations", "edges", "places_fs", "places_fi",
                "pointsto_steps", "lockset_steps", "binding_applications",
                "lock_graph_edges", "cycles_examined", "cycles_reported",
                "cycles_pruned", "self_locks", "lock_places", "depend"):
        assert key in a.stats, key
    assert a.stats["lock_graph_edges"] == 8
    assert a.stats["cycles_reported"] == 0
    assert a.stats["cycles_pruned"] == 2
    assert a.error is None


def test_cycle_cap_yields_inconclusive():
    a = analyze_icfa(icfa_of(load("mutant_ring.mc")), Config(cycle_cap=0))
    assert a.verdict == INCONCLUSIVE
    assert a.search.truncated
    assert any("truncated" in w for w in a.warnings)


@pytest.mark.parametrize("stage, message", [
    ("solve_fi", "pointer analysis"),
    ("solve_locksets", "lockset analysis"),
])
def test_diverged_fixpoint_ends_inconclusive(stage, message, showcase_source,
                                             monkeypatch, capsys):
    def diverge(*args, **kw):
        raise DivergedError("fixpoint exceeded 0 steps")

    monkeypatch.setattr(f"lockhound.pipeline.{stage}", diverge)
    a = analyze_source(showcase_source)
    assert a.verdict == INCONCLUSIVE
    assert a.error.startswith(message)
    assert a.locks is None
    assert (a.pt is None) == (stage == "solve_fi")
    assert a.error in report_text(a)
    assert report_dict(a)["error"] == a.error
    assert main(["analyze", SHOWCASE, "--dump-places", "--dump-points-to",
                 "--dump-locksets", "may"]) == 2
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_lockset_step_budget_ends_inconclusive(showcase_source, monkeypatch,
                                               capsys):
    # the real solver, not a stand-in: both its exploration and its
    # propagation count steps against FS_MAX_STEPS
    a = analyze_source(showcase_source)
    graph = lockhound.framework.explore(a.icfa)  # explored within the budget
    monkeypatch.setattr(lockhound.framework, "FS_MAX_STEPS", 1)
    with pytest.raises(DivergedError, match="fixpoint exceeded 1 steps"):
        lockhound.framework.solve_fs(graph, MayLockset(a.pt))
    a = analyze_source(showcase_source)  # gives up exploring
    assert a.verdict == INCONCLUSIVE
    assert a.error.startswith("lockset analysis: fixpoint exceeded 1 steps")
    assert a.locks is None and a.pt is not None
    assert main(["analyze", SHOWCASE]) == 2
    assert "fixpoint exceeded" in capsys.readouterr().out


def test_lockset_place_budget_ends_inconclusive(showcase_source, monkeypatch,
                                                capsys):
    # the exploration gives up on interning the first place past
    # FS_MAX_PLACES, and a budget of exactly the places it needs is enough
    n = len(lockhound.framework.explore(icfa_of(showcase_source)).places)
    monkeypatch.setattr(lockhound.framework, "FS_MAX_PLACES", n)
    assert analyze_source(showcase_source).verdict == PROVED_FREE
    monkeypatch.setattr(lockhound.framework, "FS_MAX_PLACES", n - 1)
    a = analyze_source(showcase_source)
    assert a.verdict == INCONCLUSIVE
    assert a.error == f"lockset analysis: exploration exceeded {n - 1} places"
    assert a.locks is None and a.pt is not None
    assert main(["analyze", SHOWCASE]) == 2
    assert f"exploration exceeded {n - 1} places" in capsys.readouterr().out


def test_a_place_past_the_length_bound_ends_inconclusive(
        showcase_source, monkeypatch, capsys):
    # only a stepping bug makes a place longer than place_length_bound();
    # the exploration and solve_fi then stop at that step, and the run ends
    # INCONCLUSIVE with the stage named
    icfa = icfa_of(showcase_source)
    graph = lockhound.framework.explore(icfa)
    assert max(map(len, graph.places.by_id)) == 2 < icfa.place_length_bound()
    monkeypatch.setattr(ICFA, "place_length_bound", lambda self: 1)
    message = "place of length 2 past the bound 1"
    with pytest.raises(DivergedError, match=message):
        lockhound.framework.explore(icfa)
    a = analyze_source(showcase_source)
    assert a.verdict == INCONCLUSIVE and a.locks is None and a.pt is None
    assert a.error == f"pointer analysis: {message}"
    assert main(["analyze", SHOWCASE]) == 2
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if message in line] == [
        f"warning: pointer analysis: {message}"]


def test_dumps_of_solved_stages_survive_a_diverged_lockset_solve(
        monkeypatch, capsys):
    # points-to and dependency pruning were solved before the lockset solve
    # gave up, so their dumps still print; the place and lockset dumps
    # have nothing to read
    monkeypatch.setattr(lockhound.framework, "FS_MAX_STEPS", 1)
    assert main(["analyze", SHOWCASE, "--dump-places", "--dump-points-to",
                 "--dump-deps", "--dump-locksets", "may",
                 "--dump-nonconc"]) == 2
    out = capsys.readouterr().out
    assert "fixpoint exceeded" in out
    assert "# points-to states per context" in out and "  context " in out
    assert "# dependency pruning: " in out
    assert out.index("# points-to states") < out.index("# dependency pruning")
    for absent in ("# flow-sensitive places", "# may-locksets",
                   "# non-concurrency"):
        assert absent not in out


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_source_restores_the_collector(enabled, showcase_source,
                                               monkeypatch):
    during, pauses = [], []
    solve = lockhound.pipeline.solve_locksets
    monkeypatch.setattr(lockhound.pipeline, "solve_locksets", lambda *a: (
        during.append(gc.isenabled()), solve(*a))[1])
    disable = gc.disable
    was = gc.isenabled()
    try:
        (gc.enable if enabled else disable)()
        monkeypatch.setattr(gc, "disable", lambda: (pauses.append(1), disable()))
        analyze_source(showcase_source)
        assert gc.isenabled() == enabled
        assert len(pauses) == 1  # analyze_icfa's pause does not nest inside
        analyze_icfa(icfa_of(showcase_source))
        assert gc.isenabled() == enabled
        with pytest.raises(SourceError):  # raised by the parser mid-parse
            analyze_source(showcase_source.replace("return 0;", "return 0"))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else disable)()
    assert during == [False, False]  # paused while the lockset solves run


def test_bench_tracer_sees_every_stage(showcase_source, monkeypatch):
    # The benchmark's per-layer trace wraps names the pipeline module
    # imports; a stage called any other way would vanish from the trace.
    path = FIXTURES.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclasses
    spec.loader.exec_module(tracer)
    original = lockhound.pipeline.solve_fi
    with tracer.Tracer() as t:
        analyze_source(showcase_source)
    assert lockhound.pipeline.solve_fi is original
    expected = set(tracer.PIPELINE_SPANS.values())
    expected |= {"locksets.may", "locksets.must"}
    assert expected <= {s.name for s in t.spans}


def test_report_dict_schema():
    a = analyze_source(load("mutant_nogate.mc"))
    d = report_dict(a)
    assert d["verdict"] == POTENTIAL
    assert d["error"] is None
    assert isinstance(d["warnings"], list)
    assert all(isinstance(v, float) for v in d["timings"].values())
    assert d["cycles"], "expected at least one cycle entry"
    reported_seen = False
    for c in d["cycles"]:
        assert set(c) == {"locks", "places", "pruned_by"}
        assert len(c["places"]) == len(c["locks"])
        for pl in c["places"]:
            assert set(pl) == {"callString", "threadId"}
            assert ":" in pl["callString"]
        if c["pruned_by"] is None:
            reported_seen = True
        else:
            # report_dict lists live cycles before pruned ones
            assert not reported_seen or d["cycles"].index(c) > 0
    assert reported_seen


def test_report_dict_orders_reported_before_pruned(showcase_source):
    a = analyze_source(showcase_source)
    d = report_dict(a)
    kinds = [c["pruned_by"] is not None for c in d["cycles"]]
    assert kinds == sorted(kinds)


def test_report_text_plain_and_color(showcase_source):
    a = analyze_source(showcase_source)
    plain = report_text(a, color=False)
    assert "verdict: PROVED_DEADLOCK_FREE" in plain
    assert "8 edge(s)" in plain
    assert "pruned (gatelock)" in plain and "pruned (create_join)" in plain
    assert "\x1b[" not in plain
    colored = report_text(a, color=True)
    assert "\x1b[32m" in colored  # green verdict


def test_self_lock_warning_reaches_report():
    src = """
mutex ma;
int main() { lock(&ma); lock(&ma); unlock(&ma); return 0; }
"""
    a = analyze_source(src)
    assert any("already held" in w for w in a.warnings)


# ---------------------------------------------------------------- CLI: exit


def test_analyze_exit_codes(tmp_path, capsys):
    assert main(["analyze", SHOWCASE]) == 0
    assert main(["analyze", NOGATE]) == 1
    assert main(["analyze", str(tmp_path / "missing.mc")]) == 2
    bad = tmp_path / "bad.mc"
    bad.write_text("int main( {")
    assert main(["analyze", str(bad)]) == 2
    nomain = tmp_path / "nomain.mc"
    nomain.write_text("int helper(int x) { return x; }")
    assert main(["analyze", str(nomain)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cmd", ["analyze", "oracle"])
@pytest.mark.parametrize("content, message, stdin", [
    pytest.param(b"int main() { return 0; }\n\xff\n",
                 r"error: 2:1: 'utf-8' codec can't decode byte 0xff: "
                 r"invalid start byte", False, id="not-utf8"),
    pytest.param(b"int main() {\r return 0; }\r// \xc3\xa9\xc3\xa9 \xff\n",
                 r"error: 3:7: 'utf-8' codec can't decode byte 0xff: "
                 r"invalid start byte", False, id="not-utf8-cr-line-ends"),
    pytest.param(("int main() { int x; x = " + "9" * 5000 + "; return 0; }").encode(),
                 r"error: 1:25: integer 9+\.\.\. has too many digits \(5000\)",
                 False, id="long-literal"),
    pytest.param(("int a[" + "9" * 5000 + "];\nint main() { return 0; }").encode(),
                 r"error: 1:7: integer 9+\.\.\. has too many digits \(5000\)",
                 False, id="long-array-size"),
    # Standard input is decoded as strictly as a file, also where the
    # locale's stream would let the bad byte through (a C locale's stdin
    # decodes with surrogateescape).
    pytest.param(b"int main() { return 0; }\r\n// x \xff\n",
                 r"error: 2:6: 'utf-8' codec can't decode byte 0xff: "
                 r"invalid start byte", True, id="not-utf8-comment-stdin"),
    pytest.param(b"int main() { int x; x = 1 \xff; return 0; }\n",
                 r"error: 1:27: 'utf-8' codec can't decode byte 0xff: "
                 r"invalid start byte", True, id="not-utf8-code-stdin"),
])
def test_input_errors_are_not_internal_errors(cmd, content, message, stdin,
                                              tmp_path, capsys, monkeypatch):
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(content), encoding="utf-8", errors="surrogateescape"))
        assert main([cmd, "-"]) == 2
    else:
        prog = tmp_path / "prog.mc"
        prog.write_bytes(content)
        assert main([cmd, str(prog)]) == 2
    err = capsys.readouterr().err
    assert re.match(message, err), err
    assert err.count("\n") == 1


def test_internal_error_exits_2_without_traceback(monkeypatch, capsys):
    def crash(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr("lockhound.cli.analyze_source", crash)
    assert main(["analyze", SHOWCASE]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: internal error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# One statement per nesting form: its text at n levels, and the levels its
# statement adds on top of n.
NESTED = {
    "parens": (lambda n: "x = " + "(" * n + "1" + ")" * n + ";", 1),
    "blocks": (lambda n: "{" * n + "}" * n, 0),
    "unary": (lambda n: "x = " + "-" * n + "1;", 1),
    "while": (lambda n: "while (x) " * n + "x = 1;", 1),
    "if": (lambda n: "if (x) " * n + "x = 1;", 1),
    "chain": (lambda n: "x = 1" + " + 1" * n + ";", 1),
}


@pytest.mark.parametrize("form", sorted(NESTED))
def test_nesting_limit_is_a_parse_error(form, tmp_path, capsys):
    body, extra = NESTED[form]
    prog = tmp_path / "deep.mc"
    for n, ok in ((MAX_NESTING - extra, True), (MAX_NESTING - extra + 1, False)):
        prog.write_text("int main() { int x; x = 0; " + body(n) + " return 0; }")
        rc = main(["analyze", str(prog)])
        err = capsys.readouterr().err
        if ok:
            assert rc in (0, 1), err
        else:
            assert rc == 2
            assert re.match(r"error: 1:\d+: nesting deeper than", err), err
            assert "internal error" not in err


def test_call_through_a_pointer_with_many_candidates(tmp_path, capsys):
    # the dispatch has one guard per candidate, more than Python's stack
    # holds frames: the builder compiles it in a loop
    n = 1200
    src = "".join(f"int f{i}(int a) {{ return a; }}\n" for i in range(n))
    src += ("int main() {\n  int (*fp)(int);\n  int r;\n"
            + "".join(f"  fp = f{i};\n" for i in range(n))
            + "  r = fp(3);\n  return r;\n}\n")
    prog = tmp_path / "many.mc"
    prog.write_text(src)
    assert main(["analyze", str(prog)]) == 0
    assert capsys.readouterr().out.startswith(f"verdict: {PROVED_FREE}\n")
    icfa = icfa_of(src)
    again = build_icfa(icfa.prog)  # a second build of one program is the same
    assert again.to_dot() == icfa.to_dot() and again.prog.var_types == icfa.prog.var_types
    res = run_oracle(icfa, max_states=100_000)
    assert not res.truncated and not res.witnesses and res.states == 1654


def test_python_dash_m_lockhound():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-m", "lockhound", "analyze", SHOWCASE],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(f"verdict: {PROVED_FREE}\n")


def front_door(source: str) -> str:
    """The verdict on a source text, or "error" for a one-line input error;
    anything else propagates and fails the caller."""
    try:
        return analyze_source(source).verdict
    except (SourceError, MissingMainError):
        return "error"


FRONT_DOOR_OUTCOMES = {PROVED_FREE, POTENTIAL, INCONCLUSIVE, "error"}
FUZZ_TOKEN = re.compile(r"\w+|->|==|!=|<=|>=|\S")
FUZZ_VOCABULARY = ["(", ")", "{", "}", ";", ",", "*", "&", "=", "0", "lock",
                   "create", "join", "mutex", "int", "return", "while", "if"]


@st.composite
def mutated_programs(draw) -> str:
    """A generated program with a few tokens deleted, duplicated or replaced."""
    tokens = FUZZ_TOKEN.findall(generate(draw(st.integers(0, 199))))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if how == "delete":
            del tokens[i]
        elif how == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = draw(st.sampled_from(tokens + FUZZ_VOCABULARY))
    return " ".join(tokens)


@settings(max_examples=200, deadline=None, database=None)
@given(st.text())
@example("int x; int main() { x = ²; return 0; }")
def test_fuzz_any_text_gets_a_verdict_or_an_input_error(text):
    assert front_door(text) in FRONT_DOOR_OUTCOMES


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_programs())
def test_fuzz_mutated_programs_get_a_verdict_or_an_input_error(source):
    assert front_door(source) in FRONT_DOOR_OUTCOMES


def test_inconclusive_exit_code(capsys):
    assert main(["analyze", RING, "--cycle-cap", "0"]) == 2
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out


def test_analyze_reads_stdin(showcase_source, capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(showcase_source.encode()))
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["analyze", "-"]) == 0
    assert "PROVED_DEADLOCK_FREE" in capsys.readouterr().out


# -------------------------------------------------------------- CLI: output


def test_analyze_json_report(capsys):
    assert main(["analyze", NOGATE, "--report", "json"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] == "POTENTIAL_DEADLOCKS"
    assert any(c["pruned_by"] is None for c in d["cycles"])


def test_analyze_flag_combinations(capsys):
    for flags in (["--no-depend"], ["--no-nonconc"], ["--ctx-insensitive"],
                  ["--no-depend", "--no-nonconc"]):
        code = main(["analyze", SHOWCASE, *flags])
        assert code in (0, 1)
    capsys.readouterr()


def test_analyze_dumps_smoke(capsys):
    assert main(["analyze", SHOWCASE, "--verbose", "--dump-places",
                 "--dump-points-to", "--dump-deps",
                 "--dump-locksets", "may", "--dump-nonconc"]) == 0
    out = capsys.readouterr().out
    for marker in ("# flow-sensitive places", "# points-to states",
                   "# dependency pruning", "# may-locksets",
                   "# non-concurrency", "stats:"):
        assert marker in out, marker


@pytest.mark.parametrize("flags, marker", [
    (["--verbose"], "stats:"),
    (["--dump-places"], "# flow-sensitive places"),
    (["--dump-points-to"], "# points-to states"),
    (["--dump-deps"], "# dependency pruning"),
    (["--dump-locksets", "may"], "# may-locksets"),
    (["--dump-locksets", "must"], "# must-locksets"),
    (["--dump-nonconc"], "# non-concurrency"),
], ids=["verbose", "places", "points-to", "deps", "locksets-may",
        "locksets-must", "nonconc"])
def test_json_report_is_the_whole_stdout(flags, marker, capsys):
    # the verbose stats and the dumps go to stderr, after the document
    assert main(["analyze", SHOWCASE, "--report", "json", *flags]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == PROVED_FREE
    assert marker in err and marker not in out


def test_nonconc_dump_keeps_no_answer_the_analysis_did_not_ask_for(capsys):
    a = analyze_source(diamond_source(6, random.Random(0)))
    memo = len(a.nonconc._memo)
    _dumps(a, SimpleNamespace(dump_places=False, dump_points_to=False, dump_deps=False,
                              dump_locksets=None, dump_nonconc=True))
    assert len(a.nonconc._memo) == memo
    out = capsys.readouterr().out
    assert out.count("\n") == 8257  # the header and 8,256 pairs, as before
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9d2c5c680b5f64a244488482089b68490719bf3ecc0dc3ac8993f73425a18769"


@pytest.mark.parametrize("stem", ["showcase", "wrapper_ok"])
@pytest.mark.parametrize("which", ["may", "must"])
def test_dumps_match_golden(stem, which, capsys):
    """Place numbering and order, points-to and lockset dumps, byte for byte."""
    assert main(["analyze", str(FIXTURES / f"{stem}.mc"), "--dump-places",
                 "--dump-points-to", "--dump-locksets", which]) == 0
    out = "".join(line for line in capsys.readouterr().out.splitlines(True)
                  if not line.startswith("time:"))
    assert out == (FIXTURES / f"{stem}.{which}.dump").read_text()


def test_emit_dot_files(tmp_path, capsys):
    target = tmp_path / "showcase.mc"
    shutil.copy(SHOWCASE, target)
    assert main(["analyze", str(target), "--emit-icfa", "dot",
                 "--emit-lockgraph", "dot"]) == 0
    icfa_dot = (tmp_path / "showcase.icfa.dot").read_text()
    lock_dot = (tmp_path / "showcase.lockgraph.dot").read_text()
    assert icfa_dot.startswith("digraph")
    assert lock_dot.startswith("digraph lockgraph")
    assert '"m1"' in lock_dot
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--emit-icfa", "--emit-lockgraph"])
def test_emit_needs_an_input_file(flag, showcase_source, capsys, monkeypatch):
    # the graphs go next to the input file; from stdin they would have
    # nowhere to go but stdout, ahead of the report
    stdin = io.TextIOWrapper(io.BytesIO(showcase_source.encode()))
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["analyze", "-", flag, "dot", "--report", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("argv, blocked", [
    (["gen", "3", "-o", "{tmp}/missing/x.mc"], None),
    (["analyze", "{tmp}/showcase.mc", "--emit-icfa", "dot"],
     "showcase.icfa.dot"),
], ids=["gen-into-missing-dir", "emit-onto-a-directory"])
def test_unwritable_output_is_a_plain_error(argv, blocked, tmp_path, capsys):
    shutil.copy(SHOWCASE, tmp_path / "showcase.mc")
    if blocked:
        (tmp_path / blocked).mkdir()
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "internal error" not in err


def test_want_color_rules(monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("LOCKHOUND_COLOR", raising=False)
    assert _want_color(Tty())
    assert not _want_color(io.StringIO())
    monkeypatch.setenv("LOCKHOUND_COLOR", "0")
    assert not _want_color(Tty())


# ------------------------------------------------------------- CLI: oracle


def test_oracle_command(capsys):
    assert main(["oracle", NOGATE]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["deadlocked"] == 1
    assert d["witnesses"][0]["locks"] == ["m2", "m3"]
    assert all("place" in t and "waits_for" in t
               for t in d["witnesses"][0]["threads"])

    assert main(["oracle", SHOWCASE]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["deadlocked"] == 0 and d["terminals"] >= 1


def test_oracle_truncated_without_witness_exits_2(capsys):
    # A search cut short has not shown the program deadlock-free.
    assert main(["oracle", SHOWCASE, "--max-states", "1"]) == 2
    d = json.loads(capsys.readouterr().out)
    assert d["truncated"] and d["deadlocked"] == 0 and d["states"] == 1
    # A witness found before the cut is still a deadlock.
    assert main(["oracle", NOGATE, "--max-states", "30"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["truncated"] and d["deadlocked"] == 1


@pytest.mark.parametrize("value", ["0", "-3"])
def test_oracle_rejects_a_state_budget_below_one(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", SHOWCASE, "--max-states", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-states" in err and "must be at least 1" in err


@pytest.mark.parametrize("value", ["-1", "-5"])
def test_analyze_rejects_a_negative_cycle_cap(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", RING, "--cycle-cap", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cycle-cap" in err and "must be at least 0" in err


@pytest.mark.parametrize("option, value, low", [
    ("--locks", "-3", 2), ("--locks", "1", 2),
    ("--threads", "-1", 1), ("--threads", "0", 1),
])
def test_gen_rejects_a_size_it_would_change(option, value, low, capsys):
    # the generator clamps a size below its minimum; the command says so
    with pytest.raises(SystemExit) as exc:
        main(["gen", "3", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err and f"must be at least {low}" in err


def test_oracle_rejects_recursion(tmp_path, capsys):
    rec = tmp_path / "rec.mc"
    rec.write_text("""
int f(int n) { if (n == 0) { return 0; } int r; r = f(n - 1); return r; }
int main() { int x; x = f(2); return x; }
""")
    assert main(["oracle", str(rec)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- CLI: gen


def test_gen_command_matches_library(capsys):
    assert main(["gen", "7"]) == 0
    out = capsys.readouterr().out
    assert out == generate(7, GenConfig())


def test_gen_writes_output_file(tmp_path, capsys):
    out = tmp_path / "prog.mc"
    assert main(["gen", "3", "--wrappers", "-o", str(out)]) == 0
    src = out.read_text()
    icfa_of(src)  # must parse and build
    assert "lock(" in src
    capsys.readouterr()
