"""Tokenizer for the mini C dialect.

One compiled pattern cuts the source into gapless pieces by maximal munch
(symbols longest first, so '==' wins over '='); a piece's offset is the sum
of the lengths before it, and its first character tells its kind.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

KEYWORDS = {
    "int", "mutex", "thread_t", "void", "struct", "if", "else", "while",
    "return", "lock", "unlock", "create", "join", "malloc",
}

SYMBOLS = [
    "==", "!=", "<=", ">=", "->",
    "<", ">", "=", "+", "-", "*", "&", "!", ".",
    "(", ")", "{", "}", "[", "]", ";", ",",
]
_SYMBOLS = set(SYMBOLS)

_PIECE = re.compile("|".join([
    r"\n",
    r"[ \t\r]+",
    r"//[^\n]*",
    r"/\*(?:.*?\*/|.*)",  # a block comment, or an unterminated one to the end
    r"[0-9]+",
    r"\w+",  # \w is exactly str.isalnum() or '_'
    *map(re.escape, SYMBOLS),
    r".",  # a bad character
]), re.DOTALL)


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'kw' | symbol text | 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    make = Token._make  # half the cost of Token(...), which runs a Python __new__
    line, line_start, end = 1, 0, 0  # line_start: offset of the line's first character
    text = ""
    for text in _PIECE.findall(source):
        start, end = end, end + len(text)
        c = text[0]
        if text in _SYMBOLS:
            kind = text
        elif c.isalpha() or c == "_":
            kind = "kw" if text in KEYWORDS else "ident"
        elif "0" <= c <= "9":
            kind = "int"
        else:
            if c == "\n":
                line += 1
                line_start = end
            elif text.startswith("/*"):
                if len(text) < 4 or not text.endswith("*/"):
                    raise ParseError("unterminated comment", line, start - line_start + 1)
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
            elif c not in " \t\r" and not text.startswith("//"):
                raise ParseError(f"unexpected character {c!r}", line, start - line_start + 1)
            continue
        toks.append(make((kind, text, line, start - line_start + 1)))
    if text.startswith("//"):
        end = start  # the end of input sits at a trailing // comment
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks
