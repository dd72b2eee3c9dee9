"""Tokenizer for the mini C dialect.

One compiled pattern matches a token together with the blanks before it, by
maximal munch (symbols longest first, so '==' wins over '='). A word or a
symbol is classified by one dict lookup, and an integer by its group; only
newlines, comments, trailing blanks and bad characters take the slow
branch. Tokens are plain (kind, text, line, col) tuples, kind being 'ident',
'int', 'kw', the symbol's text or 'eof'; a column counts a tab or a '\\r' as
one character.
"""

from __future__ import annotations

import re

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

# The kind of each keyword and symbol; any other word is an identifier.
_KINDS = {**dict.fromkeys(KEYWORDS, "kw"), **{s: s for s in SYMBOLS}}

_TOKEN = re.compile(
    r"([ \t\r]*)"  # the blanks before the token
    r"(?:([A-Za-z_]\w*|" + "|".join(map(re.escape, SYMBOLS)) + ")"  # a word or a symbol
    r"|([0-9]+)"  # an integer
    # The slow branch: a newline, a // comment, a block comment (or an
    # unterminated one, to the end), a word whose first character is not
    # ASCII (a letter, or a digit int() must not see), a trailing blank, or
    # a bad character. \w is exactly str.isalnum() or '_'.
    r"|(\n|//[^\n]*|/\*(?:.*?\*/|.*)|\w+|.))",
    re.DOTALL)


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    toks: list[tuple[str, str, int, int]] = []
    append = toks.append
    kinds = _KINDS.get
    line, base, end = 1, -1, 0  # base: offset of the line's first character, less one
    other = ""
    for blank, word, number, other in _TOKEN.findall(source):
        start = end + len(blank)
        if word:
            end = start + len(word)
            append((kinds(word, "ident"), word, line, start - base))
        elif number:
            end = start + len(number)
            append(("int", number, line, start - base))
        else:
            end = start + len(other)
            c = other[0]
            if c == "\n":
                line += 1
                base = start
            elif other.startswith("/*"):
                if len(other) < 4 or not other.endswith("*/"):
                    raise ParseError("unterminated comment", line, start - base)
                if "\n" in other:
                    line += other.count("\n")
                    base = start + other.rindex("\n")
            elif c.isalpha() or c == "_":  # a word with a non-ASCII letter first
                append((kinds(other, "ident"), other, line, start - base))
            elif c not in " \t\r" and not other.startswith("//"):
                raise ParseError(f"unexpected character {c!r}", line, start - base)
    if other.startswith("//"):
        end = start  # the end of input sits at a trailing // comment
    append(("eof", "", line, end - base))
    return toks
