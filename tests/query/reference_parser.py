"""The character-at-a-time lexer and seven-level descent, kept as a spec.

This is the tokenizer and expression parser the dialect had before
``repro.query.tokens`` became one compiled pattern and the descent was
flattened; the code is unchanged apart from this docstring and the
imports. The differential tests hold the library to it:

* ``reference_tokenize(text)`` must give the same ``(kind, text, line,
  column)`` stream as :func:`repro.query.tokenize`, or raise a
  ``ParseError`` with the same message;
* ``reference_parse_expression(text)`` must give the same AST as
  :func:`repro.query.parse_expression`.

One divergence is deliberate: this lexer reads any Unicode digit as a
number (``str.isdigit``), which the library no longer does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import ParseError
from repro.query.ast import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Negate,
    Not,
)
from repro.query.tokens import KEYWORDS, TokenKind


@dataclass(frozen=True)
class Token:
    """One lexeme with its source position (1-based line/column)."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word.upper()


_OPERATORS = (">=", "<=", "<>", "!=", ">", "<", "=", "+", "-", "/")
_PUNCTUATION = "(),.;*"


def reference_tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, ending with an END sentinel."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[Token]:
    line, column = 1, 1
    index = 0
    length = len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char.isspace():
            advance(1)
            continue
        if char == "-" and text[index:index + 2] == "--":
            # SQL line comment.
            while index < length and text[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenKind.KEYWORD, upper, start_line, start_column)
            else:
                yield Token(TokenKind.IDENTIFIER, word, start_line,
                            start_column)
            advance(end - index)
            continue
        if char.isdigit() or (char == "." and index + 1 < length
                              and text[index + 1].isdigit()):
            end = index
            seen_dot = False
            while end < length and (text[end].isdigit()
                                    or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # A dot not followed by a digit is punctuation
                    # (e.g. ``1.`` is illegal, ``s.loc`` never gets here).
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            # Optional exponent: 1e6, 6.1e-05, 2E+3.
            if end < length and text[end] in "eE":
                exponent = end + 1
                if exponent < length and text[exponent] in "+-":
                    exponent += 1
                if exponent < length and text[exponent].isdigit():
                    end = exponent
                    while end < length and text[end].isdigit():
                        end += 1
            number = text[index:end]
            yield Token(TokenKind.NUMBER, number, start_line, start_column)
            advance(end - index)
            continue
        if char in "'\"":
            quote = char
            end = index + 1
            while end < length and text[end] != quote:
                if text[end] == "\n":
                    raise ParseError("unterminated string literal",
                                     line=start_line, column=start_column)
                end += 1
            if end >= length:
                raise ParseError("unterminated string literal",
                                 line=start_line, column=start_column)
            value = text[index + 1:end]
            yield Token(TokenKind.STRING, value, start_line, start_column)
            advance(end - index + 1)
            continue
        matched_operator = next(
            (op for op in _OPERATORS if text.startswith(op, index)), None)
        if matched_operator is not None:
            yield Token(TokenKind.OPERATOR, matched_operator, start_line,
                        start_column)
            advance(len(matched_operator))
            continue
        if char in _PUNCTUATION:
            yield Token(TokenKind.PUNCTUATION, char, start_line, start_column)
            advance(1)
            continue
        raise ParseError(f"unexpected character {char!r}",
                         line=start_line, column=start_column)
    yield Token(TokenKind.END, "", line, column)


_COMPARISON_OPS = {">", "<", ">=", "<=", "=", "<>", "!="}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.END:
            self._position += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self.current
        found = token.text or "end of input"
        return ParseError(f"{message}, found {found!r}",
                          line=token.line, column=token.column)

    def _expect_identifier(self) -> str:
        if self.current.kind is not TokenKind.IDENTIFIER:
            raise self._error("expected an identifier")
        return self._advance().text

    def _expect_punct(self, char: str) -> None:
        if not (self.current.kind is TokenKind.PUNCTUATION
                and self.current.text == char):
            raise self._error(f"expected {char!r}")
        self._advance()

    def _at_punct(self, char: str) -> bool:
        return (self.current.kind is TokenKind.PUNCTUATION
                and self.current.text == char)

    def _accept_punct(self, char: str) -> bool:
        if self._at_punct(char):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        operands = [self._and_expr()]
        while self.current.is_keyword("OR"):
            self._advance()
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp(op="OR", operands=tuple(operands))

    def _and_expr(self) -> Expression:
        operands = [self._not_expr()]
        while self.current.is_keyword("AND"):
            self._advance()
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp(op="AND", operands=tuple(operands))

    def _not_expr(self) -> Expression:
        if self.current.is_keyword("NOT"):
            self._advance()
            return Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        if (self.current.kind is TokenKind.OPERATOR
                and self.current.text in _COMPARISON_OPS):
            op = self._advance().text
            if op == "!=":
                op = "<>"
            right = self._additive()
            return Comparison(op=op, left=left, right=right)
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while (self.current.kind is TokenKind.OPERATOR
               and self.current.text in ("+", "-")):
            op = self._advance().text
            left = Arithmetic(op=op, left=left,
                              right=self._multiplicative())
        return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while ((self.current.kind is TokenKind.OPERATOR
                and self.current.text == "/")
               or self._at_punct("*")):
            op = "*" if self._at_punct("*") else "/"
            self._advance()
            left = Arithmetic(op=op, left=left, right=self._unary())
        return left

    def _unary(self) -> Expression:
        if (self.current.kind is TokenKind.OPERATOR
                and self.current.text == "-"):
            self._advance()
            return Negate(self._unary())
        return self._primary()

    def _primary(self) -> Expression:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            is_float = "." in token.text or "e" in token.text \
                or "E" in token.text
            return Literal(float(token.text) if is_float
                           else int(token.text))
        if token.kind is TokenKind.STRING:
            self._advance()
            return Literal(token.text)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if self._accept_punct("("):
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        if token.kind is TokenKind.IDENTIFIER:
            name = self._advance().text
            if self._accept_punct("("):
                args: List[Expression] = []
                if not self._at_punct(")"):
                    args.append(self.parse_expression())
                    while self._accept_punct(","):
                        args.append(self.parse_expression())
                self._expect_punct(")")
                return FunctionCall(name=name, args=tuple(args))
            if self._accept_punct("."):
                column = self._expect_identifier()
                return ColumnRef(qualifier=name, name=column)
            return ColumnRef(qualifier="", name=name)
        raise self._error("expected an expression")


def reference_parse_expression(text: str) -> Expression:
    """Parse a standalone expression with the seven-level descent."""
    parser = _Parser(reference_tokenize(text))
    expression = parser.parse_expression()
    if parser.current.kind is not TokenKind.END:
        raise parser._error("unexpected trailing input")
    return expression
