"""Recursive-descent parser for the Aorta SQL dialect.

Grammar (precedence low to high): OR, AND, NOT, comparison, ``+ -``,
``* /``, unary minus.

::

    statement      := create_action | create_aq | drop_aq | select
    create_action  := CREATE ACTION ident '(' [param (',' param)*] ')'
                      AS string PROFILE string
    param          := ident ident               -- Type name
    create_aq      := CREATE AQ ident AS select
    drop_aq        := DROP AQ ident
    select         := SELECT select_item (',' select_item)*
                      FROM table_ref (',' table_ref)* [WHERE expr]
    select_item    := '*' | expr
    table_ref      := ident [ident]              -- table [alias]
    expr           := and_expr (OR and_expr)*
    and_expr       := not_expr (AND not_expr)*
    not_expr       := NOT not_expr | arith [op arith]
    arith          := term (('+' | '-') term)*
    term           := primary (('*' | '/') primary)*
    primary        := '-' primary | literal | func_call | column_ref
                    | '(' expr ')'

Each pair of levels with one associativity is parsed by one loop:
``expr`` builds one n-ary ``BooleanOp`` per AND / OR chain (a
parenthesised group stays a nested node), ``arith`` folds both
arithmetic levels to the left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.query.ast import (
    ActionParameterDecl,
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Negate,
    CreateActionStatement,
    CreateAQStatement,
    DropAQStatement,
    ExplainStatement,
    Expression,
    FunctionCall,
    Literal,
    Not,
    SelectQuery,
    Star,
    Statement,
    TableRef,
)
from repro.query.tokens import Token, TokenKind, tokenize

#: Comparison operator text -> the op the AST stores (``!=`` is
#: ``<>``). Storing these constants, not the token's text, keeps one
#: string per operator instead of one per comparison.
_COMPARISON_OPS = {">": ">", "<": "<", ">=": ">=", "<=": "<=", "=": "=",
                   "<>": "<>", "!=": "<>"}

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


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0
        self.current = tokens[0]

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _advance(self) -> Token:
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

    def _expect_keyword(self, word: str) -> Token:
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

    def _table_ref(self) -> Tuple[TableRef, Token]:
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
        if token.kind is TokenKind.OPERATOR and token.text in _COMPARISON_OPS:
            self._advance()
            return Comparison(op=_COMPARISON_OPS[token.text], left=left,
                              right=self._arith())
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


def parse(text: str) -> Statement:
    """Parse one statement (optionally ``;``-terminated)."""
    parser = _Parser(tokenize(text))
    return parser.finish(parser.parse_statement())


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression (for tests and tooling)."""
    parser = _Parser(tokenize(text))
    expression = parser.parse_expression()
    if parser.current.kind is not TokenKind.END:
        raise parser._error("unexpected trailing input")
    return expression
