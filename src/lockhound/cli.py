"""Command line interface.

    lockhound analyze prog.mc --report=json
    lockhound oracle prog.mc
    lockhound gen 7 --wrappers -o prog.mc

Exit codes for analyze: 0 proved deadlock-free, 1 potential deadlocks
reported, 2 input/usage errors, internal errors or an inconclusive run.
The oracle exits 1 when it found a deadlock, 0 when it searched every
reachable state and found none, and 2 when its search was cut short without
finding one.
Every subcommand exits 2 on an internal error, so a crash never reads as a
verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .errors import MissingMainError, SourceError
from .lockgraph import lockgraph_dot
from .pipeline import (
    Analysis, Config, POTENTIAL, PROVED_FREE, analyze_source,
    place_str, report_dict, report_text,
)
from .pointsto import STAR, obj_label


def _want_color(stream) -> bool:
    if os.environ.get("LOCKHOUND_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _read_source(path: str) -> str:
    """The text of a file or of standard input ("-"), decoded strictly as
    UTF-8 with CRLF and CR line ends read as LF. A byte that is not UTF-8 is
    a SourceError at its line:col, counted in the text the parser sees."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    # no byte of a multibyte UTF-8 sequence is "\r" or "\n"
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as ex:
        seen = data[:ex.start].decode()
        msg = (f"'utf-8' codec can't decode byte 0x{data[ex.start]:02x}: "
               f"{ex.reason}")
        raise SourceError(msg, seen.count("\n") + 1,
                          len(seen) - seen.rfind("\n")) from None


def _write(path: str, content: str) -> bool:
    """Write content to path and say so on stderr; False, after one error
    line, when the file cannot be written."""
    try:
        Path(path).write_text(content)
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return False
    print(f"wrote {path}", file=sys.stderr)
    return True


# ----------------------------------------------------------------- analyze


def _fmt_lockset(ls) -> str:
    return "{" + ", ".join(sorted(obj_label(x) for x in ls)) + "}"


def _dumps(a: Analysis, args) -> None:
    # Each dump reads one stage's result, which is None if its fixpoint
    # diverged or the stage never ran.
    icfa = a.icfa
    if args.dump_places and a.locks is not None:
        print("# flow-sensitive places")
        for pid, p in enumerate(a.locks.may.places.places()):
            print(f"  {pid}: {place_str(icfa, p)}")
    if args.dump_points_to and a.pt is not None:
        print("# points-to states per context")
        for ctx in a.pt.solve.places.places():
            st = a.pt.solve.at(ctx)
            print(f"  context {place_str(icfa, ctx)}:")
            if not isinstance(st, dict):
                print("    (everything may point anywhere)")
                continue
            for cell, vals in sorted(st.items(), key=lambda kv: obj_label(kv[0])):
                vs = "*" if vals is STAR else \
                    "{" + ", ".join(sorted(obj_label(v) for v in vals)) + "}"
                print(f"    {obj_label(cell)} -> {vs}")
    if args.dump_deps and a.depend is not None:
        d = a.depend
        print(f"# dependency pruning: {len(d.edges)}/{len(icfa.edges)} edges, "
              f"functions: {', '.join(sorted(d.functions))}")
        print(f"  symbols: {', '.join(sorted(d.symbols))}")
    if args.dump_locksets and a.locks is not None:
        which = args.dump_locksets
        solve = a.locks.may if which == "may" else a.locks.must
        print(f"# {which}-locksets")
        for p in solve.places.places():
            print(f"  {place_str(icfa, p)}: {_fmt_lockset(solve.at(p))}")
    if args.dump_nonconc and a.nonconc is not None:
        print("# non-concurrency of lock statement places")
        lock_places = sorted({e.place for e in a.lock_edges})
        for i, p1 in enumerate(lock_places):
            for p2 in lock_places[i:]:
                r = a.nonconc.answer(p1, p2)
                if r:
                    print(f"  {place_str(icfa, p1)}  #  "
                          f"{place_str(icfa, p2)}: {r}")


def cmd_analyze(args) -> int:
    if args.file == "-" and (args.emit_icfa or args.emit_lockgraph):
        print("error: --emit-icfa and --emit-lockgraph write next to the "
              "input file, so they need a file, not '-'", file=sys.stderr)
        return 2
    try:
        source = _read_source(args.file)
    except (OSError, SourceError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    cfg = Config(no_depend=args.no_depend, no_nonconc=args.no_nonconc,
                 cycle_cap=args.cycle_cap,
                 ctx_insensitive=args.ctx_insensitive)
    try:
        a = analyze_source(source, cfg)
    except (SourceError, MissingMainError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2

    stem = Path(args.file).with_suffix("").as_posix()
    if args.emit_icfa and not _write(stem + ".icfa.dot", a.icfa.to_dot()):
        return 2
    if args.emit_lockgraph and not _write(stem + ".lockgraph.dot",
                                          lockgraph_dot(a.lock_edges)):
        return 2

    if args.report == "json":
        print(json.dumps(report_dict(a), indent=2))
    else:
        sys.stdout.write(report_text(a, color=_want_color(sys.stdout)))
    # under --report json stdout holds the one document, and the rest of
    # the output goes to stderr
    with contextlib.redirect_stdout(
            sys.stderr if args.report == "json" else sys.stdout):
        if args.verbose:
            print("stats:", json.dumps(a.stats, indent=2, default=str))
        _dumps(a, args)
    if a.verdict == PROVED_FREE:
        return 0
    if a.verdict == POTENTIAL:
        return 1
    return 2


# ------------------------------------------------------------------ oracle


def cmd_oracle(args) -> int:
    from .frontend import build_icfa, parse, preprocess
    from .oracle import run_oracle

    try:
        icfa = build_icfa(preprocess(parse(_read_source(args.file))))
        res = run_oracle(icfa, max_states=args.max_states)
    except (SourceError, MissingMainError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    out = {
        "states": res.states,
        "terminals": res.terminals,
        "deadlocked": len(res.witnesses),
        "ub_pruned_steps": res.ub_events,
        "truncated": res.truncated,
        "witnesses": [{
            "locks": sorted(obj_label(res.abstract_cell(c))
                            for c in w.lock_cells()),
            "threads": [{"place": place_str(icfa, p),
                         "waits_for": obj_label(res.abstract_cell(c))}
                        for (_, p, c) in w.cycle],
            "schedule_length": len(w.schedule),
        } for w in res.witnesses],
    }
    print(json.dumps(out, indent=2))
    if res.witnesses:
        return 1
    return 2 if res.truncated else 0  # a cut search proves nothing


# --------------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    from .generator import GenConfig, generate

    cfg = GenConfig(max_threads=args.threads, max_locks=args.locks,
                    wrappers=args.wrappers, heap=args.heap,
                    loop_create=args.loop_create, join_style=args.join_style,
                    star=args.star)
    text = generate(args.seed, cfg)
    if args.output:
        return 0 if _write(args.output, text) else 2
    sys.stdout.write(text)
    return 0


# -------------------------------------------------------------------- main


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {n}")
        return n
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lockhound",
        description="static deadlock analysis for a pthreads-like mini language")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="run the static analysis")
    pa.add_argument("file", help="input program ('-' for stdin)")
    pa.add_argument("--report", choices=["text", "json"], default="text")
    pa.add_argument("--emit-icfa", choices=["dot"], default=None,
                    help="write the control automaton next to the input")
    pa.add_argument("--emit-lockgraph", choices=["dot"], default=None,
                    help="write the lock graph next to the input")
    pa.add_argument("--no-depend", action="store_true",
                    help="disable dependency pruning of the pointer analysis")
    pa.add_argument("--no-nonconc", action="store_true",
                    help="report every cycle, skipping concurrency pruning")
    pa.add_argument("--ctx-insensitive", action="store_true",
                    help="merge pointer analysis contexts (ablation)")
    pa.add_argument("--cycle-cap", type=_int_at_least(0), default=2000)
    pa.add_argument("--verbose", action="store_true")
    pa.add_argument("--dump-places", action="store_true")
    pa.add_argument("--dump-points-to", action="store_true")
    pa.add_argument("--dump-deps", action="store_true")
    pa.add_argument("--dump-locksets", choices=["may", "must"], default=None)
    pa.add_argument("--dump-nonconc", action="store_true")
    pa.set_defaults(fn=cmd_analyze)

    po = sub.add_parser("oracle", help="exhaustively execute a program")
    po.add_argument("file")
    po.add_argument("--max-states", type=_int_at_least(1), default=100_000)
    po.set_defaults(fn=cmd_oracle)

    pg = sub.add_parser("gen", help="generate a random well-defined program")
    pg.add_argument("seed", type=int)
    pg.add_argument("--threads", type=_int_at_least(1), default=3)
    pg.add_argument("--locks", type=_int_at_least(2), default=4)
    pg.add_argument("--wrappers", action="store_true")
    pg.add_argument("--heap", action="store_true")
    pg.add_argument("--loop-create", action="store_true")
    pg.add_argument("--join-style", choices=["always", "maybe", "never"],
                    default="maybe")
    pg.add_argument("--star", action="store_true")
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as ex:
        print(f"error: internal error: {type(ex).__name__}: {ex}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
