"""Tokenizer for the J-lite subject language."""

from __future__ import annotations

from dataclasses import dataclass

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

# Longest-match first.
TWO_CHAR_OPS = ("->", "==", "!=", "<=", ">=", "&&", "||", "++", "--")
ONE_CHAR_OPS = "+-*/%<>!&|^~=.,;:()[]{}?@"


@dataclass(frozen=True)
class Token:
    type: str  # IDENT, INT, STRING, CHAR, EOF, a keyword, or an operator
    value: str
    line: int
    column: int


def tokenize(text: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(msg: str) -> ParseError:
        return ParseError(msg, path, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                raise error("unterminated block comment")
            for k in range(i, j + 2):
                if text[k] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 2
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            ttype = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(ttype, word, line, col))
            col += i - start
            continue
        if c.isdigit():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "."):
                i += 1
            tokens.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if c == '"':
            start = i
            i += 1
            chars = []
            while i < n and text[i] != '"':
                step = 2 if text[i] == "\\" else 1  # an escape and its character
                chunk = text[i : i + step]
                if "\n" in chunk:
                    raise error("unterminated string literal")
                chars.append(chunk)
                i += step
            if i >= n:
                raise error("unterminated string literal")
            i += 1
            tokens.append(Token("STRING", "".join(chars), line, col))
            col += i - start
            continue
        if c == "'":
            start = i
            i += 1
            if i < n and text[i] == "\\":
                i += 1
            if i >= n or text[i] == "\n":
                raise error("unterminated char literal")
            value = text[start + 1 : i + 1]
            i += 1
            if i >= n or text[i] != "'":
                raise error("unterminated char literal")
            i += 1
            tokens.append(Token("CHAR", value, line, col))
            col += i - start
            continue
        two = text[i : i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if c in ONE_CHAR_OPS:
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {c!r}")

    tokens.append(Token("EOF", "", line, col))
    return tokens
