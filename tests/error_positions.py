"""Golden error positions: every fixture with one token blanked out.

For each fixture and each of its tokens, the token's text is overwritten
with spaces, so every other token keeps its line and column, and parse()
runs on the result. One line per variant records the fixture, the blanked
token's position and text, and str(error) for a ParseError or
TypeCheckError, or "ok". The golden file pins every error message and its
line:col across changes to the tokenizer, the parser and the checker.

    PYTHONPATH=src python tests/error_positions.py   # rewrites the golden file

tests/test_frontend.py compares the file with lines().
"""

from __future__ import annotations

from pathlib import Path

from lockhound.errors import ParseError, TypeCheckError
from lockhound.frontend import parse
from lockhound.frontend.lexer import tokenize

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "error_positions.txt"


def blanked(source: str):
    """(line, col, text, variant) for each token of source but the end of input."""
    starts = [0]  # offset of each line's first character
    for i, c in enumerate(source):
        if c == "\n":
            starts.append(i + 1)
    for kind, text, line, col in tokenize(source):
        if kind == "eof":
            continue
        at = starts[line - 1] + col - 1
        yield line, col, text, source[:at] + " " * len(text) + source[at + len(text):]


def outcome(source: str) -> str:
    try:
        parse(source)
    except (ParseError, TypeCheckError) as e:
        return f"{type(e).__name__} {e}"
    return "ok"


def lines() -> list[str]:
    out = []
    for path in sorted(FIXTURES.glob("*.mc")):
        for line, col, text, variant in blanked(path.read_text()):
            out.append(f"{path.name} {line}:{col} {text!r} -> {outcome(variant)}")
    return out


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(lines()) + "\n")
