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

The parser walks the statement's token texts (``token_texts``, one
``re.findall``) and reads a token's kind from its text only where the
grammar asks: a word is upper-cased and looked up in ``KEYWORDS``, a
number is known by its first character, a string by its quote. No
check accepts the catch-all text of a character no token can start,
so such a statement always reaches an error. Errors take their line,
column and normalized text from ``tokenize``, which re-lexes the
statement and raises first if it holds a bad character anywhere.
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
from repro.query.tokens import KEYWORDS, Token, token_texts, tokenize

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


def _is_identifier(text: str) -> bool:
    """A word (it starts with a letter or ``_``) that is no keyword."""
    first = text[:1]
    return ((first.isalpha() or first == "_")
            and text.upper() not in KEYWORDS)


def _is_string(text: str) -> bool:
    """A quoted literal; a lone quote is the unterminated catch-all."""
    first = text[:1]
    return (first == "'" or first == '"') and len(text) > 1


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._texts = token_texts(text)
        self._position = 0
        self.current = self._texts[0]

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _advance(self) -> str:
        """Step past the current text (never END: no check accepts "")."""
        text = self.current
        self._position += 1
        self.current = self._texts[self._position]
        return text

    def _token(self, position: int) -> Token:
        """The positioned token at ``position``, for an error.

        ``tokenize`` raises instead if the text holds a bad character
        anywhere, which wins over the grammar error being reported.
        """
        return tokenize(self._text)[position]

    def _error(self, message: str) -> ParseError:
        token = self._token(self._position)
        found = token.text or "end of input"
        return ParseError(f"{message}, found {found!r}",
                          line=token.line, column=token.column)

    def _expect_keyword(self, word: str) -> None:
        if self.current.upper() != word:
            raise self._error(f"expected {word}")
        self._advance()

    def _expect_identifier(self) -> str:
        if not _is_identifier(self.current):
            raise self._error("expected an identifier")
        return self._advance()

    def _expect_punct(self, char: str) -> None:
        if self.current != char:
            raise self._error(f"expected {char!r}")
        self._advance()

    def _expect_string(self) -> str:
        if not _is_string(self.current):
            raise self._error("expected a string literal")
        return self._advance()[1:-1]

    def _accept_punct(self, char: str) -> bool:
        if self.current == char:
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        word = self.current.upper()
        if word == "EXPLAIN":
            self._advance()
            return ExplainStatement(target=self.parse_statement())
        if word == "CREATE":
            self._advance()
            word = self.current.upper()
            if word == "ACTION":
                return self._create_action()
            if word == "AQ":
                return self._create_aq()
            raise self._error("expected ACTION or AQ after CREATE")
        if word == "DROP":
            self._advance()
            self._expect_keyword("AQ")
            return DropAQStatement(name=self._expect_identifier())
        if word == "SELECT":
            return self._select()
        raise self._error("expected CREATE, DROP or SELECT")

    def finish(self, statement: Statement) -> Statement:
        self._accept_punct(";")
        if self.current:
            raise self._error("unexpected trailing input")
        return statement

    def _create_action(self) -> CreateActionStatement:
        self._expect_keyword("ACTION")
        name = self._expect_identifier()
        self._expect_punct("(")
        parameters: List[ActionParameterDecl] = []
        if self.current != ")":
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
        if self.current.upper() == "WHERE":
            self._advance()
            where = self.parse_expression()
        aliases = [table.alias for table, _position in tables]
        duplicates = {a for a in aliases if aliases.count(a) > 1}
        if duplicates:
            repeat = self._token(next(
                position for k, (table, position) in enumerate(tables)
                if table.alias in aliases[:k]))
            raise ParseError(
                f"duplicate table alias(es): {sorted(duplicates)}",
                line=repeat.line, column=repeat.column)
        return SelectQuery(select_items=tuple(items),
                           tables=tuple(table for table, _position in tables),
                           where=where)

    def _select_item(self) -> Expression:
        if self._accept_punct("*"):
            return Star()
        return self.parse_expression()

    def _table_ref(self) -> Tuple[TableRef, int]:
        """A FROM entry, and the position of the text naming its alias."""
        position = self._position
        table = alias = self._expect_identifier()
        if _is_identifier(self.current):
            position = self._position
            alias = self._advance()
        ref = _TABLES.get((table, alias))
        if ref is None:
            ref = _TABLES[table, alias] = TableRef(table, alias)
        return ref, position

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        """OR of ANDs in one loop; each chain is one flat BooleanOp."""
        arms: List[Expression] = []
        conjuncts = [self._not_expr()]
        while True:
            word = self.current.upper()
            if word == "AND":
                self._advance()
                conjuncts.append(self._not_expr())
            elif word == "OR":
                self._advance()
                arms.append(_n_ary("AND", conjuncts))
                conjuncts = [self._not_expr()]
            else:
                break
        arms.append(_n_ary("AND", conjuncts))
        return _n_ary("OR", arms)

    def _not_expr(self) -> Expression:
        if self.current.upper() == "NOT":
            self._advance()
            return Not(self._not_expr())
        left = self._arith()
        op = _COMPARISON_OPS.get(self.current)
        if op is not None:
            self._advance()
            return Comparison(op=op, left=left, right=self._arith())
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
            text = self.current
            if text == "*" or text == "/":
                self._advance()
                term = Arithmetic(op=text, left=term, right=self._primary())
            elif text == "+" or text == "-":
                self._advance()
                total = term if total is None else Arithmetic(
                    op=add_op, left=total, right=term)
                add_op = text
                term = self._primary()
            else:
                break
        if total is None:
            return term
        return Arithmetic(op=add_op, left=total, right=term)

    def _primary(self) -> Expression:
        text = self.current
        first = text[:1]
        if first.isalpha() or first == "_":
            word = text.upper()
            if word not in KEYWORDS:
                self._advance()
                follow = self.current
                if follow == ".":
                    self._advance()
                    return _column(text, self._expect_identifier())
                if follow == "(":
                    self._advance()
                    args: List[Expression] = []
                    if self.current != ")":
                        args.append(self.parse_expression())
                        while self._accept_punct(","):
                            args.append(self.parse_expression())
                    self._expect_punct(")")
                    return FunctionCall(name=text, args=tuple(args))
                return _column("", text)
            if word == "TRUE" or word == "FALSE":
                self._advance()
                return Literal(word == "TRUE")
        elif "0" <= first <= "9" or (first == "." and text != "."):
            self._advance()
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        elif _is_string(text):
            self._advance()
            return Literal(text[1:-1])
        elif text == "(":
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        elif text == "-":
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
    parser = _Parser(text)
    return parser.finish(parser.parse_statement())


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression (for tests and tooling)."""
    parser = _Parser(text)
    expression = parser.parse_expression()
    if parser.current:
        raise parser._error("unexpected trailing input")
    return expression
