"""Unit tests for the SQL tokenizer."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query import Token, TokenKind, parse_expression, tokenize
from tests.query.reference_parser import (
    reference_parse_expression,
    reference_tokenize,
)


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


def test_keywords_case_insensitive():
    tokens = tokenize("select Select SELECT")
    assert all((t.kind, t.text) == (TokenKind.KEYWORD, "SELECT")
               for t in tokens[:-1])


def test_identifiers_preserve_case():
    assert texts("sensor accel_x myCamera") == [
        "sensor", "accel_x", "myCamera"]


def test_numbers_int_and_float():
    tokens = tokenize("500 3.14 0.5")
    assert [t.text for t in tokens[:-1]] == ["500", "3.14", "0.5"]
    assert all(t.kind is TokenKind.NUMBER for t in tokens[:-1])


def test_qualified_name_is_three_tokens():
    assert texts("s.accel_x") == ["s", ".", "accel_x"]


def test_strings_both_quote_styles():
    tokens = tokenize("'single' \"double\"")
    assert [t.text for t in tokens[:-1]] == ["single", "double"]
    assert all(t.kind is TokenKind.STRING for t in tokens[:-1])


def test_unterminated_string_raises_with_position():
    with pytest.raises(ParseError, match="unterminated"):
        tokenize('SELECT "oops')


def test_operators_longest_match():
    assert texts("a >= b <> c != d") == ["a", ">=", "b", "<>", "c", "!=", "d"]


def test_line_comment_skipped():
    assert texts("SELECT -- a comment\n x") == ["SELECT", "x"]


def test_unexpected_character_raises():
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize("SELECT @")


def test_positions_tracked():
    tokens = tokenize("SELECT\n  x")
    assert tokens[0].line == 1 and tokens[0].column == 1
    assert tokens[1].line == 2 and tokens[1].column == 3


def test_end_sentinel():
    assert tokenize("")[-1].kind is TokenKind.END


def test_figure_1_query_tokenizes():
    text = '''CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''
    tokens = tokenize(text)
    assert (tokens[0].kind, tokens[0].text) == (TokenKind.KEYWORD, "CREATE")
    assert tokens[-1].kind is TokenKind.END
    words = [t.text for t in tokens]
    assert "photo" in words and "coverage" in words and "500" in words


# ----------------------------------------------------------------------
# Differential: the compiled-pattern lexer against the one it replaced
# ----------------------------------------------------------------------
#: ASCII printable characters plus a few Unicode letters and spaces
#: (no non-ASCII digits: there the two lexers differ on purpose, see
#: test_tokens_numbers.py).
ALPHABET = string.printable + "éßſıİΩ\u00a0\u2028"
FRAGMENTS = ("--", "-- note\n", "-- a @\n", "SELECT", "and", "Or", "not",
             "1.5e+3", ".5", "2E", "'", '"', "'a b'", "\n", " ", ".",
             "s.loc", ">=", "<>", "!=", "!")

texts_to_lex = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS),
              st.text(alphabet=ALPHABET, max_size=3)),
    max_size=12).map("".join)


def outcome(function, text):
    try:
        result = function(text)
    except ParseError as error:
        return ("ParseError", str(error))
    if isinstance(result, list):
        return [(t.kind, t.text, t.line, t.column) for t in result]
    return result


@settings(max_examples=600, deadline=None)
@given(texts_to_lex)
def test_lexer_and_parser_agree_with_the_reference(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)
    assert (outcome(parse_expression, text)
            == outcome(reference_parse_expression, text))
