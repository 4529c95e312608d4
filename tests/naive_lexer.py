r"""Reference tokenizer: the character-at-a-time loop that ``ucov.lexer``
replaced with one master pattern.

The tests check that both give equal tokens, or an equal error message at
an equal location, except where the program deliberately differs: a lone
``\r`` ends a line, a non-decimal digit such as '²' starts no number, and
the EOF token after a trailing ``//`` comment is placed after the comment.
``rows`` turns the scanner's parallel token lists into the same rows.
"""

from __future__ import annotations

from typing import NamedTuple

from ucov.errors import ParseError
from ucov.lexer import KEYWORDS, Tokens


class Token(NamedTuple):
    type: str
    value: str
    line: int
    column: int


def rows(tokens: Tokens) -> list[Token]:
    """The (type, value, line, column) of each token of ``ucov.lexer.tokenize``."""
    return [
        Token(tokens.types[i], tokens.values[i], *tokens.position(i))
        for i in range(len(tokens))
    ]

# Longest-match first.
TWO_CHAR_OPS = ("->", "==", "!=", "<=", ">=", "&&", "||", "++", "--")
ONE_CHAR_OPS = "+-*/%<>!&|^~=.,;:()[]{}?@"
HEX_DIGITS = "0123456789abcdefABCDEF"
OCTAL_DIGITS = "01234567"


def char_escape_end(text: str, i: int) -> int:
    """The end of the escape whose backslash is at ``i - 1``: a Unicode
    escape (``u``s and four hex digits), an octal escape (at most three
    digits, the first of three at most '3') or one character."""
    n = len(text)
    if text.startswith("u", i):
        j = i
        while j < n and text[j] == "u":
            j += 1
        if j + 4 <= n and all(d in HEX_DIGITS for d in text[j : j + 4]):
            return j + 4
    elif i < n and text[i] in OCTAL_DIGITS:
        j = i + 1
        limit = i + (3 if text[i] in "0123" else 2)
        while j < limit and j < n and text[j] in OCTAL_DIGITS:
            j += 1
        return j
    return i + 1


def naive_tokenize(text: str, path: str) -> list[Token]:
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
        if c in " \t\f\r":
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
        if c.isalpha() or c in "_$":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                i += 1
            word = text[start:i]
            ttype = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(ttype, word, line, col))
            col += i - start
            continue
        if c.isdigit() or (c == "." and text[i + 1 : i + 2].isdecimal()):
            start = i
            # '_' joins two digits; a sign right after the exponent letter
            # ('e' or 'E' in a decimal number, 'p' or 'P' in a hex one)
            # belongs to the literal.
            hexadecimal = text.startswith(("0x", "0X"), i)
            is_digit = HEX_DIGITS.__contains__ if hexadecimal else str.isdecimal
            exponent = "pP" if hexadecimal else "eE"
            i += 1
            while i < n:
                if text[i].isalnum() or text[i] == ".":
                    i += 1
                elif text[i] in "+-" and text[i - 1] in exponent:
                    i += 1
                elif text[i] == "_" and is_digit(text[i - 1]):
                    j = i
                    while j < n and text[j] == "_":
                        j += 1
                    if j == n or not is_digit(text[j]):
                        break
                    i = j
                else:
                    break
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
            end = i + 1
            if i < n and text[i] == "\\":
                end = char_escape_end(text, i + 1)
            if end > n or "\n" in text[i:end]:
                raise error("unterminated char literal")
            value = text[start + 1 : end]
            i = end
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
