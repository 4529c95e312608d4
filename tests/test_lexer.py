"""The scanner against the reference lexer (``naive_lexer.py``): equal tokens,
or an equal error message at an equal location, except for three deliberate
differences, each checked by its own test."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from naive_lexer import naive_tokenize, rows
from ucov import ParseError, parse_unit
from ucov.lexer import tokenize


def scan(text: str, path: str):
    """The scanner's tokens as the reference's (type, value, line, column) rows."""
    return rows(tokenize(text, path))


def outcome(lex, text: str):
    """The tokens before EOF, or the error's message, line and column."""
    try:
        tokens = lex(text, "T.java")
    except ParseError as exc:
        return (exc.reason, exc.line, exc.column)
    return tokens[:-1]


def test_scanner_matches_the_reference_on_every_fixture_file():
    paths = sorted(FIXTURES.rglob("*.java"))
    assert len(paths) >= 30
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert scan(text, str(path)) == naive_tokenize(text, str(path)), path


def test_the_length_of_the_tokens_counts_every_token_and_one_eof():
    """The benchmark's tracer counts tokens with ``len``."""
    for path in sorted(FIXTURES.rglob("*.java")):
        text = path.read_text(encoding="utf-8")
        tokens = tokenize(text, str(path))
        assert len(tokens) == len(naive_tokenize(text, str(path))), path
        assert tokens.types.count("EOF") == 1 and tokens.types[-1] == "EOF", path
        assert len(tokens.values) == len(tokens.starts) == len(tokens), path


# Letters (one non-ASCII), '_', '$', decimal digits (one Arabic-Indic),
# numerics that are not decimal digits, hex prefixes, signed exponents,
# leading-point numbers, octal and Unicode escapes and their parts, quotes,
# backslashes, comment delimiters, every operator character and every
# character the scanner skips but '\r'.
PIECES = [
    "a", "Z", "é", "_", "$", "class", "new", "0", "7", "٣", "²", "½", "Ⅷ", "e-", "E+",
    "0x", "p-", "P+", ".5", ".5e-3", "u", "0041", "377", "'\\101'", "'\\u00e9'",
    '"', "'", "\\", "//", "/*", "*/", *"+-*/%<>!&|^~=.,;:()[]{}?@",
    " ", "\t", "\f", "\n",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@example("'\\'x")  # an escaped quote cannot close a char literal
@example("'''")
@example('"\\"')
@example("/*/")
@example("'\\u0041' '\\uu00e9' '\\101' '\\377' '\\77' '\\7' '\\u'")
@example(".5 .5f .5e-3 ._5 .٣ a.5 1..5 .²")
@example("a // c")  # a comment right before EOF
@example("a /* c */")
@example(" \n\t /* x")  # '/*' unterminated after white space
@example(" \t\n \n")  # only white space
@example("a\r\n\r\n\r\n  b\r\n")  # runs of '\r\n'
@example("$ $a a$ _$1 1$ a\fb \f\n\f// c\f d\n\f")  # '$' in names; form feeds
def test_scanner_agrees_with_the_reference_lexer(text):
    got = outcome(scan, text)
    if isinstance(got, tuple) and got[0].startswith("unexpected character"):
        reason, line, column = got
        offset = sum(len(l) + 1 for l in text.split("\n")[: line - 1]) + column - 1
        c = text[offset]
        if c.isdigit() and not c.isdecimal():
            # Where the scanner rejects a digit like '²', the reference
            # starts a number; on the text before it the two agree.
            assert naive_tokenize(text[: offset + 1], "T.java")[-2] == ("INT", c, line, column)
            text = text[:offset]
            got = outcome(scan, text)
    assert got == outcome(naive_tokenize, text)
    if not isinstance(got, tuple):
        lines = text.split("\n")
        assert scan(text, "T.java")[-1] == ("EOF", "", len(lines), len(lines[-1]) + 1)


def test_cr_and_crlf_each_end_one_line_in_code_and_comments():
    text = "class A {\r  int x; // c\r  int y; /* a\r\nb\rc */ int z;\r\n}\r"
    lf = text.replace("\r\n", "\n").replace("\r", "\n")
    assert scan(text, "A.java") == naive_tokenize(lf, "A.java")
    # The reference reads '\r' as a space: 'x' on line 1 and 'y' in a comment.
    assert ("IDENT", "x", 1, 17) in naive_tokenize(text, "A.java")
    assert ("IDENT", "y", 3, 7) in scan(text, "A.java")


def test_non_decimal_digits_start_no_number():
    with pytest.raises(ParseError) as exc:
        tokenize("int x = ²;", "A.java")
    assert (exc.value.reason, exc.value.line, exc.value.column) == (
        "unexpected character '²'",
        1,
        9,
    )
    assert naive_tokenize("int x = ²;", "A.java")[3] == ("INT", "²", 1, 9)
    # A name or number may still contain one; a decimal digit of any
    # script starts a number.
    assert [t[:2] for t in scan("x² 1² ٣", "A.java")] == [
        ("IDENT", "x²"),
        ("INT", "1²"),
        ("INT", "٣"),
        ("EOF", ""),
    ]


@pytest.mark.parametrize("name", ["A$B", "$", "$A", "_$", "A$1", "A$$"])
def test_an_identifier_may_start_with_and_hold_a_dollar_sign(name):
    # JLS §3.8: '$' is a Java letter.
    text = f"class {name} {{ }}"
    assert scan(text, "A.java")[1] == naive_tokenize(text, "A.java")[1] == ("IDENT", name, 1, 7)
    assert parse_unit(text, "A.java").types[0].simple_name == name


def test_a_form_feed_is_white_space_that_ends_no_line():
    # JLS §3.6: a form feed separates tokens like a space, so the
    # declaration after it keeps its line and counts it as one column.
    text = "class A { }\fclass B { }\n\f class C { }"
    assert [(t.value, t.line, t.column) for t in scan(text, "A.java") if t.type == "IDENT"] == [
        ("A", 1, 7), ("B", 1, 19), ("C", 2, 9)]
    assert scan(text, "A.java") == naive_tokenize(text, "A.java")
    assert [t.simple_name for t in parse_unit(text, "A.java").types] == ["A", "B", "C"]


def test_eof_after_a_trailing_line_comment_is_placed_after_it():
    text = "int x; // end"
    assert scan(text, "A.java")[-1] == ("EOF", "", 1, 14)
    assert naive_tokenize(text, "A.java")[-1] == ("EOF", "", 1, 8)


@pytest.mark.parametrize(
    "text, values",
    [
        ("1_000", ["1_000"]),
        ("1e-5f", ["1e-5f"]),
        ("1.5e+3", ["1.5e+3"]),
        ("0x1e-5", ["0x1e", "-", "5"]),  # no exponent in a hex number
        ("0xFF_FF 1__0 1_000L", ["0xFF_FF", "1__0", "1_000L"]),
        ("1_e 1e--5", ["1", "_e", "1e-", "-", "5"]),
        ("0x1p-3 0x1.8P+3f 0x1p3d", ["0x1p-3", "0x1.8P+3f", "0x1p3d"]),
        ("0x1p3-1 1p-3", ["0x1p3", "-", "1", "1p", "-", "3"]),  # no 'p' exponent in a decimal
        (".5 .5f .5e-3 .5_0 x=.5;", [".5", ".5f", ".5e-3", ".5_0", "x", "=", ".5", ";"]),
        ("a.b ._5", ["a", ".", "b", ".", "_5"]),  # a point before a non-digit is an operator
    ],
)
def test_numbers_take_signed_exponents_and_digit_separators(text, values):
    assert tokenize(text, "A.java").values[:-1] == values
    assert [t.value for t in naive_tokenize(text, "A.java")[:-1]] == values


@pytest.mark.parametrize(
    "text",
    ["'\\u0041'", "'\\uuu00e9'", "'\\u00E9'", "'\\101'", "'\\0'", "'\\7'", "'\\77'",
     "'\\377'", "'\\n'", "'\\''"],
)
def test_a_char_literal_holds_a_unicode_or_an_octal_escape(text):
    want = [("CHAR", text[1:-1], 1, 1)]
    assert scan(text, "A.java")[:-1] == naive_tokenize(text, "A.java")[:-1] == want
    [member] = parse_unit(f"class A {{ char c = {text}; }}", "A.java").types[0].members
    assert (member.field_init.value, member.field_init.kind) == (text[1:-1], "char")


@pytest.mark.parametrize("text", ["'\\u004'", "'\\u00G1'", "'\\400'", "'\\1234'", "'\\08'"])
def test_a_char_literal_with_a_malformed_escape_is_unterminated(text):
    # '\400' is past the largest octal escape, '\377', as in Java.
    for lex in (scan, naive_tokenize):
        assert outcome(lex, text) == ("unterminated char literal", 1, 1)


def test_a_number_after_a_member_access_point_is_still_a_parse_error():
    with pytest.raises(ParseError):
        parse_unit("class A { Object o = obj.5; }", "A.java")


def test_a_separator_that_ends_a_number_is_still_a_parse_error_at_its_location():
    with pytest.raises(ParseError) as exc:
        parse_unit("class A { int x = 1_; }", "A.java")
    assert (exc.value.reason, exc.value.line, exc.value.column) == (
        "expected ';', found '_'",
        1,
        20,
    )
