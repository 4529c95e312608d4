"""Tokenizer for the J-lite subject language: one compiled master pattern
with one named group per token rule, tried in order at each position.

Tokens are kept as parallel lists rather than one object each, and a
token's line and column are computed from its offset only when a node or
an error needs them."""

from __future__ import annotations

import re
from bisect import bisect_right

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

# ``\r\n``, ``\r`` and ``\n`` each end a line, as in Java; a line end inside
# a literal leaves it unterminated. White space is a space, a tab, a form
# feed or a line end (JLS §3.6); a form feed ends no line. ``[^\W\d]`` also
# admits numerics such as '²' and 'Ⅷ', which ``tokenize`` rejects: an
# identifier starts with a letter, '_' or '$' and goes on with those and
# digits (JLS §3.8). A number starts with a digit, or with a point and a
# digit (``.5``), and runs over letters, digits and points; '_' joins two
# of its digits (hex digits in a hex number), and a sign right after the
# exponent letter belongs to the literal: 'e' or 'E' in a decimal number,
# 'p' or 'P' in a hex one, so ``1e-5f`` and ``0x1p-3`` are one literal each
# and ``0x1e-5`` a subtraction, as in Java. A char literal holds one
# character or one escape: a backslash and a character, an octal escape
# (``\101``, at most ``\377``) or a Unicode escape (``\u0041``, with one or
# more 'u's). ``bad`` is the opening of an unterminated comment or literal,
# so it precedes the operator '/', and two-character operators precede the
# one-character ones. A character that no rule takes matches the last,
# unnamed alternative and leaves ``lastgroup`` None.
#
# White space is the optional prefix of every match, so a token costs one
# match; a comment is a ``skip`` match of its own, and so is the white space
# at the end of the text, which ``\Z`` takes. The prefix never gives a
# character back: after it comes a character that some alternative takes,
# or the end.
_TOKEN = re.compile(
    r"""
    [ \t\f\r\n]*
    (?:
      (?P<skip>   //[^\r\n]* | /\*(?s:.*?)\*/ | \Z )
    | (?P<IDENT>  (?:[^\W\d]|\$)[\w$]* )
    | (?P<INT>    0[xX](?:[^\W_]|\.|(?<=[0-9A-Fa-f])_+(?=[0-9A-Fa-f])|(?<=[pP])[+-])*
                | \.?\d(?:[^\W_]|\.|(?<=\d)_+(?=\d)|(?<=[eE])[+-])* )
    | (?P<STRING> "(?:[^"\\\r\n]|\\[^\r\n])*" )
    | (?P<CHAR>   '(?:\\(?:u+[0-9A-Fa-f]{4}|[0-3]?[0-7]{1,2}|[^\r\n])|[^\\\r\n])' )
    | (?P<bad>    /\* | " | ' )
    | (?P<op>     -> | == | != | <= | >= | && | \|\| | \+\+ | --
                | [-+*/%<>!&|^~=.,;:()\[\]{}?@] )
    | (?s:.)
    )
    """,
    re.VERBOSE,
)

# Only skipped text (white space and comments) can hold a line end, so the
# line ends of the whole text are those the tokens lie between.
_LINE_END = re.compile(r"\r\n?|\n")

# The error for a ``bad`` match, by its first character.
_UNTERMINATED = {
    "/": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}


class Tokens:
    """The tokens of one source text as parallel lists, ending with one
    ``EOF`` token at the end of the text: ``types[i]`` is IDENT, INT,
    STRING, CHAR, EOF, a keyword or an operator, ``values[i]`` the token's
    text (a literal's without its quotes) and ``starts[i]`` its offset in
    the text. ``line_starts`` holds the offset of each line's first
    character. ``len`` is the number of tokens."""

    __slots__ = ("types", "values", "starts", "line_starts")

    def __init__(self, types: list[str], values: list[str], starts: list[int],
                 line_starts: list[int]) -> None:
        self.types = types
        self.values = values
        self.starts = starts
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.types)

    def position(self, i: int) -> tuple[int, int]:
        """The 1-based line and column of token ``i``."""
        return _position(self.line_starts, self.starts[i])


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in _LINE_END.finditer(text))]


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def tokenize(text: str, path: str) -> Tokens:
    types: list[str] = []
    values: list[str] = []
    starts: list[int] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind is None or kind == "bad":
            start = m.end() - 1 if kind is None else m.start(kind)
            c = text[start]
            raise _error(_UNTERMINATED.get(c, f"unexpected character {c!r}"), text, path, start)
        start = m.start(kind)
        value = m[kind]
        if kind == "IDENT":
            if value in KEYWORDS:
                kind = value
            elif not (value[0].isalpha() or value[0] in "_$"):
                raise _error(f"unexpected character {value[0]!r}", text, path, start)
        elif kind == "op":
            kind = value
        elif kind != "INT":  # a string or char literal, kept without its quotes
            value = value[1:-1]
        types.append(kind)
        values.append(value)
        starts.append(start)
    types.append("EOF")
    values.append("")
    starts.append(len(text))
    return Tokens(types, values, starts, _line_starts(text))


def _error(message: str, text: str, path: str, offset: int) -> ParseError:
    return ParseError(message, path, *_position(_line_starts(text), offset))
