"""Number-literal lexing details, including scientific notation."""

import pytest

from repro.errors import ParseError
from repro.query import TokenKind, parse_expression, tokenize
from repro.query.ast import Literal


def number_tokens(text):
    return [t.text for t in tokenize(text) if t.kind is TokenKind.NUMBER]


def test_scientific_notation_variants():
    assert number_tokens("1e6 6.1e-05 2E+3 7e2") == [
        "1e6", "6.1e-05", "2E+3", "7e2"]


def test_scientific_parse_values():
    assert parse_expression("1e6") == Literal(1e6)
    assert parse_expression("6.1e-05") == Literal(6.1e-05)
    assert parse_expression("2E+3") == Literal(2000.0)


def test_exponent_without_digits_is_identifier_suffix():
    # "5e" is the number 5 followed by the identifier "e".
    tokens = tokenize("5e")
    assert [t.kind for t in tokens[:-1]] == [TokenKind.NUMBER,
                                             TokenKind.IDENTIFIER]


def test_exponent_sign_without_digits_not_consumed():
    # "5e+" -> number 5, identifier e, operator +.
    tokens = tokenize("5e+")
    assert [(t.kind, t.text) for t in tokens[:-1]] == [
        (TokenKind.NUMBER, "5"),
        (TokenKind.IDENTIFIER, "e"),
        (TokenKind.OPERATOR, "+"),
    ]


def test_integer_stays_int():
    value = parse_expression("42").value
    assert value == 42 and isinstance(value, int)


def test_float_stays_float():
    value = parse_expression("42.0").value
    assert value == 42.0 and isinstance(value, float)


@pytest.mark.parametrize("text, column", [
    ("²", 1),            # superscript two: a digit, not a decimal
    ("x > ٣", 5),        # Arabic-Indic three
    ("1٣", 2),           # an ASCII number stops at the first non-ASCII digit
    (".٣", 2),
])
def test_non_ascii_digit_is_no_number(text, column):
    # str.isdigit() once let these through as NUMBER tokens: the
    # parser then crashed in int() or read "x > 3".
    with pytest.raises(ParseError, match="unexpected character") as raised:
        parse_expression(text)
    assert (raised.value.line, raised.value.column) == (1, column)


def test_non_ascii_digit_inside_an_identifier_stays_in_it():
    assert number_tokens("x٣ 1e٣") == ["1"]
    assert [t.text for t in tokenize("x٣")[:-1]] == ["x٣"]
