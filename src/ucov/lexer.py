"""Tokenizer for the J-lite subject language: one compiled master pattern
with one named group per token rule, tried in order at each position."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

KEYWORDS = frozenset(
    {
        "package", "import", "class", "interface", "extends", "implements",
        "permits", "throws", "new", "this", "return", "if", "else", "while",
        "for", "throw", "try", "catch", "finally", "void", "public",
        "protected", "private", "abstract", "final", "sealed", "static",
        "default", "true", "false", "null",
    }
)


class Token(NamedTuple):
    type: str  # IDENT, INT, STRING, CHAR, EOF, a keyword, or an operator
    value: str
    line: int
    column: int


# ``\r\n``, ``\r`` and ``\n`` each end a line, as in Java; a line end inside
# a literal leaves it unterminated. ``[^\W\d]`` also admits numerics such as
# '²' and 'Ⅷ', which ``tokenize`` rejects: an identifier starts with a
# letter or '_'. A number runs over letters, digits and points; '_' joins
# two of its digits (hex digits in a hex number), and in a decimal number a
# sign right after 'e' or 'E' belongs to the literal, so ``1e-5f`` is one
# literal and ``0x1e-5`` a subtraction, as in Java. ``bad`` is the opening
# of an unterminated comment or literal, so it precedes the operator '/',
# and two-character operators precede the one-character ones. A character
# that no rule takes matches the last, unnamed alternative and leaves
# ``lastgroup`` None.
_TOKEN = re.compile(
    r"""
      (?P<skip>   [ \t\r\n]+ | //[^\r\n]* | /\*(?s:.*?)\*/ )
    | (?P<IDENT>  [^\W\d]\w* )
    | (?P<INT>    0[xX](?:[^\W_]|\.|(?<=[0-9A-Fa-f])_+(?=[0-9A-Fa-f]))*
                | \d(?:[^\W_]|\.|(?<=\d)_+(?=\d)|(?<=[eE])[+-])* )
    | (?P<STRING> "(?:[^"\\\r\n]|\\[^\r\n])*" )
    | (?P<CHAR>   '(?:\\[^\r\n]|[^\\\r\n])' )
    | (?P<bad>    /\* | " | ' )
    | (?P<op>     -> | == | != | <= | >= | && | \|\| | \+\+ | --
                | [-+*/%<>!&|^~=.,;:()\[\]{}?@] )
    | (?s:.)
    """,
    re.VERBOSE,
)

# The error for a ``bad`` match, by its first character.
_UNTERMINATED = {
    "/": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}


def tokenize(text: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            breaks = value.count("\n") + value.count("\r") - value.count("\r\n")
            if breaks:
                line += breaks
                line_start = start + max(value.rfind("\n"), value.rfind("\r")) + 1
            continue
        c = value[0]
        if kind is None or kind == "bad" or (kind == "IDENT" and not (c.isalpha() or c == "_")):
            message = _UNTERMINATED.get(c, f"unexpected character {c!r}")
            raise ParseError(message, path, line, start - line_start + 1)
        # Only an identifier can spell a keyword: the other values start
        # with a digit or a quote.
        ttype = value if kind == "op" or value in KEYWORDS else kind
        if kind in ("STRING", "CHAR"):
            value = value[1:-1]
        tokens.append(Token(ttype, value, line, start - line_start + 1))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
