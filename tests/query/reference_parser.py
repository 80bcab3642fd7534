"""Two earlier parsers of the dialect, kept verbatim as specs.

The first is the character-at-a-time tokenizer and seven-level
expression descent the dialect had before ``repro.query.tokens``
became one compiled pattern and the descent was flattened. The second
is that compiled-pattern tokenizer and the statement parser that walked
its positioned ``Token`` objects, as they stood before the parser came
to read bare token texts. The code is unchanged apart from this
docstring, the imports and the names that keep the two apart. The
differential tests hold the library to them:

* ``reference_tokenize(text)`` must give the same ``(kind, text, line,
  column)`` stream as :func:`repro.query.tokenize`, or raise a
  ``ParseError`` with the same message;
* ``reference_parse_expression(text)`` must give the same AST as
  :func:`repro.query.parse_expression`;
* ``reference_parse(text)`` must give the same AST as
  :func:`repro.query.parse`, or raise a ``ParseError`` with the same
  message, line and column.

One divergence is deliberate: the first lexer reads any Unicode digit
as a number (``str.isdigit``), which the library no longer does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, NoReturn, Optional, Tuple

from repro.errors import ParseError
from repro.query.ast import (
    ActionParameterDecl,
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    CreateActionStatement,
    CreateAQStatement,
    DropAQStatement,
    ExplainStatement,
    Expression,
    FunctionCall,
    Literal,
    Negate,
    Not,
    SelectQuery,
    Star,
    Statement,
    TableRef,
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


# ----------------------------------------------------------------------
# The compiled-pattern tokenizer and the token-object statement parser
# ----------------------------------------------------------------------
class PositionedToken(NamedTuple):
    """One lexeme with its source position (1-based line/column)."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word.upper()


#: Whitespace and ``--`` line comments before a token. When no token
#: follows them, ``re`` backtracks into this prefix: a comment is only
#: taken whole (to its newline) and ``-`` is no operator before another
#: ``-``, so no shorter prefix lexes part of a comment as a token.
_SKIP = r"(?:\s|--[^\n]*(?=\n|\Z))*"

#: One match = the skipped prefix plus exactly one token; the group
#: that matched names its kind. Numbers are ASCII digits only
#: (``str.isdigit`` would also take ``²`` or ``٣``).
_TOKEN = re.compile(_SKIP + r"""(?:
    ([A-Za-z_]\w*)                                       # 1 word
  | ([^\W\d\x00-\x7f]\w*)                                # 2 word (a letter?)
  | ((?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)  # 3 number
  | ('[^'\n]*'|"[^"\n]*")                                # 4 string
  | ([<>!]=|<>|[<>=+/]|-(?!-))                           # 5 operator
  | ([(),.;*])                                           # 6 punctuation
  | (\Z)                                                 # 7 end
)""", re.VERBOSE)

_SKIPPED = re.compile(_SKIP)

_KINDS = (None, TokenKind.IDENTIFIER, TokenKind.IDENTIFIER, TokenKind.NUMBER,
          TokenKind.STRING, TokenKind.OPERATOR, TokenKind.PUNCTUATION,
          TokenKind.END)


def reference_pattern_tokenize(text: str) -> List[PositionedToken]:
    """Lex ``text`` into tokens, ending with an END sentinel."""
    tokens: List[PositionedToken] = []
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
        append(new(PositionedToken,
                   (kind, word, line, start - line_start + 1)))
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


#: Comparison operator text -> the op the AST stores (``!=`` is
#: ``<>``). Storing these constants, not the token's text, keeps one
#: string per operator instead of one per comparison.
_COMPARISON_OP_TABLE = {">": ">", "<": "<", ">=": ">=", "<=": "<=",
                        "=": "=", "<>": "<>", "!=": "<>"}

#: One ``ColumnRef`` per ``(qualifier, name)`` and one ``TableRef`` per
#: ``(table, alias)`` for the whole process. The nodes are immutable, so
#: every AQ naming ``s.temperature`` holds the same node, and a repeat
#: costs one dict hit instead of a construction. Bounded by the distinct
#: names ever parsed.
_COLUMNS: Dict[Tuple[str, str], ColumnRef] = {}
_TABLES: Dict[Tuple[str, str], TableRef] = {}


def _column(qualifier: str, name: str) -> ColumnRef:
    ref = _COLUMNS.get((qualifier, name))
    if ref is None:
        ref = _COLUMNS[qualifier, name] = ColumnRef(qualifier, name)
    return ref


class _StatementParser:
    def __init__(self, tokens: List[PositionedToken]) -> None:
        self._tokens = tokens
        self._position = 0
        self.current = tokens[0]

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _advance(self) -> PositionedToken:
        token = self.current
        if token.kind is not TokenKind.END:
            self._position += 1
            self.current = self._tokens[self._position]
        return token

    def _error(self, message: str) -> ParseError:
        token = self.current
        found = token.text or "end of input"
        return ParseError(f"{message}, found {found!r}",
                          line=token.line, column=token.column)

    def _expect_keyword(self, word: str) -> PositionedToken:
        if not self.current.is_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    def _expect_identifier(self) -> str:
        if self.current.kind is not TokenKind.IDENTIFIER:
            raise self._error("expected an identifier")
        return self._advance().text

    def _expect_punct(self, char: str) -> None:
        if not (self.current.kind is TokenKind.PUNCTUATION
                and self.current.text == char):
            raise self._error(f"expected {char!r}")
        self._advance()

    def _expect_string(self) -> str:
        if self.current.kind is not TokenKind.STRING:
            raise self._error("expected a string literal")
        return self._advance().text

    def _at_punct(self, char: str) -> bool:
        return (self.current.kind is TokenKind.PUNCTUATION
                and self.current.text == char)

    def _accept_punct(self, char: str) -> bool:
        if self._at_punct(char):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        if self.current.is_keyword("EXPLAIN"):
            self._advance()
            return ExplainStatement(target=self.parse_statement())
        if self.current.is_keyword("CREATE"):
            self._advance()
            if self.current.is_keyword("ACTION"):
                return self._create_action()
            if self.current.is_keyword("AQ"):
                return self._create_aq()
            raise self._error("expected ACTION or AQ after CREATE")
        if self.current.is_keyword("DROP"):
            self._advance()
            self._expect_keyword("AQ")
            return DropAQStatement(name=self._expect_identifier())
        if self.current.is_keyword("SELECT"):
            return self._select()
        raise self._error("expected CREATE, DROP or SELECT")

    def finish(self, statement: Statement) -> Statement:
        self._accept_punct(";")
        if self.current.kind is not TokenKind.END:
            raise self._error("unexpected trailing input")
        return statement

    def _create_action(self) -> CreateActionStatement:
        self._expect_keyword("ACTION")
        name = self._expect_identifier()
        self._expect_punct("(")
        parameters: List[ActionParameterDecl] = []
        if not self._at_punct(")"):
            while True:
                type_name = self._expect_identifier()
                param_name = self._expect_identifier()
                parameters.append(ActionParameterDecl(type_name, param_name))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        self._expect_keyword("AS")
        library_path = self._expect_string()
        self._expect_keyword("PROFILE")
        profile_path = self._expect_string()
        return CreateActionStatement(
            name=name, parameters=tuple(parameters),
            library_path=library_path, profile_path=profile_path)

    def _create_aq(self) -> CreateAQStatement:
        self._expect_keyword("AQ")
        name = self._expect_identifier()
        self._expect_keyword("AS")
        return CreateAQStatement(name=name, query=self._select())

    def _select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        items: List[Expression] = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._accept_punct(","):
            tables.append(self._table_ref())
        where: Optional[Expression] = None
        if self.current.is_keyword("WHERE"):
            self._advance()
            where = self.parse_expression()
        aliases = [table.alias for table, _token in tables]
        duplicates = {a for a in aliases if aliases.count(a) > 1}
        if duplicates:
            repeat = next(token for k, (table, token) in enumerate(tables)
                          if table.alias in aliases[:k])
            raise ParseError(
                f"duplicate table alias(es): {sorted(duplicates)}",
                line=repeat.line, column=repeat.column)
        return SelectQuery(select_items=tuple(items),
                           tables=tuple(table for table, _token in tables),
                           where=where)

    def _select_item(self) -> Expression:
        if self._at_punct("*"):
            self._advance()
            return Star()
        return self.parse_expression()

    def _table_ref(self) -> Tuple[TableRef, PositionedToken]:
        """A FROM entry, and the token that names its alias."""
        token = self.current
        table = self._expect_identifier()
        if self.current.kind is TokenKind.IDENTIFIER:
            token = self._advance()
        ref = _TABLES.get((table, token.text))
        if ref is None:
            ref = _TABLES[table, token.text] = TableRef(table, token.text)
        return ref, token

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        """OR of ANDs in one loop; each chain is one flat BooleanOp."""
        arms: List[Expression] = []
        conjuncts = [self._not_expr()]
        while self.current.kind is TokenKind.KEYWORD:
            if self.current.text == "AND":
                self._advance()
                conjuncts.append(self._not_expr())
            elif self.current.text == "OR":
                self._advance()
                arms.append(_n_ary("AND", conjuncts))
                conjuncts = [self._not_expr()]
            else:
                break
        arms.append(_n_ary("AND", conjuncts))
        return _n_ary("OR", arms)

    def _not_expr(self) -> Expression:
        token = self.current
        if token.kind is TokenKind.KEYWORD and token.text == "NOT":
            self._advance()
            return Not(self._not_expr())
        left = self._arith()
        token = self.current
        if (token.kind is TokenKind.OPERATOR
                and token.text in _COMPARISON_OP_TABLE):
            self._advance()
            return Comparison(op=_COMPARISON_OP_TABLE[token.text],
                              left=left, right=self._arith())
        return left

    def _arith(self) -> Expression:
        """``+ -`` over ``* /``, both left-associative, in one loop.

        ``term`` is the product being built; ``total`` is what the
        terms before it sum to, waiting for ``add_op`` and ``term``.
        """
        total: Optional[Expression] = None
        add_op = ""
        term = self._primary()
        while True:
            token = self.current
            if ((token.kind is TokenKind.PUNCTUATION and token.text == "*")
                    or (token.kind is TokenKind.OPERATOR
                        and token.text == "/")):
                self._advance()
                term = Arithmetic(op=token.text, left=term,
                                  right=self._primary())
            elif (token.kind is TokenKind.OPERATOR
                  and token.text in ("+", "-")):
                self._advance()
                total = term if total is None else Arithmetic(
                    op=add_op, left=total, right=term)
                add_op = token.text
                term = self._primary()
            else:
                break
        if total is None:
            return term
        return Arithmetic(op=add_op, left=total, right=term)

    def _primary(self) -> Expression:
        token = self.current
        kind = token.kind
        if kind is TokenKind.IDENTIFIER:
            self._advance()
            if self._accept_punct("."):
                return _column(token.text, self._expect_identifier())
            if self._accept_punct("("):
                args: List[Expression] = []
                if not self._at_punct(")"):
                    args.append(self.parse_expression())
                    while self._accept_punct(","):
                        args.append(self.parse_expression())
                self._expect_punct(")")
                return FunctionCall(name=token.text, args=tuple(args))
            return _column("", token.text)
        if kind is TokenKind.NUMBER:
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if kind is TokenKind.STRING:
            self._advance()
            return Literal(token.text)
        if kind is TokenKind.KEYWORD and token.text in ("TRUE", "FALSE"):
            self._advance()
            return Literal(token.text == "TRUE")
        if kind is TokenKind.PUNCTUATION and token.text == "(":
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        if kind is TokenKind.OPERATOR and token.text == "-":
            self._advance()
            return Negate(self._primary())
        raise self._error("expected an expression")


def _n_ary(op: str, operands: List[Expression]) -> Expression:
    """One operand as itself, more as one flat ``BooleanOp``."""
    if len(operands) == 1:
        return operands[0]
    return BooleanOp(op=op, operands=tuple(operands))


def reference_parse(text: str) -> Statement:
    """Parse one statement (optionally ``;``-terminated)."""
    parser = _StatementParser(reference_pattern_tokenize(text))
    return parser.finish(parser.parse_statement())
