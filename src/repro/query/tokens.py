"""Tokenizer for the Aorta SQL dialect."""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, NoReturn

from repro.errors import ParseError

#: Reserved words, matched case-insensitively and normalized to upper.
KEYWORDS = frozenset({
    "CREATE", "DROP", "ACTION", "AQ", "AS", "PROFILE",
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT",
    "TRUE", "FALSE", "EXPLAIN",
})


class TokenKind(enum.Enum):
    """Lexical categories of the dialect."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"      # > < >= <= = <> !=
    PUNCTUATION = "punct"      # ( ) , . * ;
    END = "end"


class Token(NamedTuple):
    """One lexeme with its source position (1-based line/column)."""

    kind: TokenKind
    text: str
    line: int
    column: int


#: Whitespace and ``--`` line comments before a token. When no token
#: follows them, ``re`` backtracks into this prefix: a comment is only
#: taken whole (to its newline) and ``-`` is no operator before another
#: ``-``, so no shorter prefix lexes part of a comment as a token.
_SKIP = r"(?:\s|--[^\n]*(?=\n|\Z))*"

#: The tokens, one alternative per ``_KINDS`` entry: one match is the
#: skipped prefix plus exactly one token. Numbers are ASCII digits only
#: (``str.isdigit`` would also take ``²`` or ``٣``).
_ALTERNATIVES = (
    r"[A-Za-z_]\w*",                                         # word
    r"[^\W\d\x00-\x7f]\w*",                                  # word (a letter?)
    r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?",  # number
    r"'[^'\n]*'|" r'"[^"\n]*"',                              # string
    r"[<>!]=|<>|[<>=+/]|-(?!-)",                             # operator
    r"[(),.;*]",                                             # punctuation
    r"\Z",                                                   # end
)

#: Each alternative its own group: the group that matched
#: (``lastindex``) names the kind.
_TOKEN = re.compile(
    _SKIP + "(?:" + "|".join(f"({token})" for token in _ALTERNATIVES) + ")")

#: The same alternatives in one group, for ``findall``, plus a
#: catch-all for one character no token can start (``tokenize`` raises
#: there). Each text comes back as written: keywords in any case,
#: strings with their quotes, END as "" (twice after trailing space).
_TEXTS = re.compile(_SKIP + "(" + "|".join(_ALTERNATIVES) + "|(?s:.))")

_SKIPPED = re.compile(_SKIP)

_KINDS = (None, TokenKind.IDENTIFIER, TokenKind.IDENTIFIER, TokenKind.NUMBER,
          TokenKind.STRING, TokenKind.OPERATOR, TokenKind.PUNCTUATION,
          TokenKind.END)


def token_texts(text: str) -> List[str]:
    """The token texts of ``text`` in one ``re`` call, ending with ""."""
    return _TEXTS.findall(text)


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, ending with an END sentinel."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    new = tuple.__new__  # Token(...) minus its generated __new__'s frame
    # Tokens never span a newline, so only a skipped prefix that passes
    # ``newline`` (the next one at or after ``position``) moves the line.
    newline = text.find("\n")
    line, line_start = 1, 0
    position = 0
    while True:
        found = match(text, position)
        if found is None:
            _raise_at(text, _SKIPPED.match(text, position).end())
        group = found.lastindex
        # The token ends the match, so its end is where the next begins.
        start, end = found.span(group)
        if 0 <= newline < start:
            line += text.count("\n", position, start)
            line_start = text.rfind("\n", position, start) + 1
            newline = text.find("\n", start)
        kind, word = _KINDS[group], found[group]
        if group <= 2:
            if group == 2 and not word[0].isalpha():
                _raise_at(text, start)
            upper = word.upper()
            if upper in KEYWORDS:
                kind, word = TokenKind.KEYWORD, upper
        elif group == 4:
            word = word[1:-1]
        append(new(Token, (kind, word, line, start - line_start + 1)))
        if group == 7:
            return tokens
        position = end


def _raise_at(text: str, index: int) -> NoReturn:
    """Raise the ParseError for the character at ``index``."""
    char = text[index]
    line = text.count("\n", 0, index) + 1
    column = index - text.rfind("\n", 0, index)
    if char in "'\"":
        raise ParseError("unterminated string literal",
                         line=line, column=column)
    raise ParseError(f"unexpected character {char!r}",
                     line=line, column=column)
