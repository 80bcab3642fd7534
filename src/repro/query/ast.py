"""Abstract syntax tree of the Aorta SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Set, Tuple


class Node:
    """Base class of all AST nodes.

    Every node class is slotted, and so is every base: one base without
    ``__slots__ = ()`` gives each node a ``__dict__`` again.
    """

    __slots__ = ()


class Expression(Node):
    """Base class of evaluable expressions."""

    __slots__ = ()

    def column_refs(self) -> Set["ColumnRef"]:
        """All column references in this subtree."""
        return set()

    def qualifiers(self) -> Set[str]:
        """All table aliases referenced in this subtree."""
        return {ref.qualifier for ref in self.column_refs() if ref.qualifier}

    def function_names(self) -> Set[str]:
        """Names of all functions called in this subtree."""
        return set()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """A constant: number, string or boolean."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            # The lexer has no escapes: quote with ' when the value holds
            # ", so the rendering parses back to this literal.
            quote = "'" if '"' in self.value else '"'
            return f"{quote}{self.value}{quote}"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``s.accel_x``."""

    qualifier: str
    name: str

    def column_refs(self) -> Set["ColumnRef"]:
        return {self}

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A function or action invocation, e.g. ``coverage(c.id, s.loc)``."""

    name: str
    args: Tuple[Expression, ...]

    def column_refs(self) -> Set[ColumnRef]:
        refs: Set[ColumnRef] = set()
        for arg in self.args:
            refs |= arg.column_refs()
        return refs

    def function_names(self) -> Set[str]:
        names = {self.name}
        for arg in self.args:
            names |= arg.function_names()
        return names

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Arithmetic(Expression):
    """A binary arithmetic expression: ``left op right``, op in + - * /."""

    op: str
    left: Expression
    right: Expression

    def column_refs(self) -> Set[ColumnRef]:
        return self.left.column_refs() | self.right.column_refs()

    def function_names(self) -> Set[str]:
        return self.left.function_names() | self.right.function_names()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Negate(Expression):
    """Unary minus."""

    operand: Expression

    def column_refs(self) -> Set[ColumnRef]:
        return self.operand.column_refs()

    def function_names(self) -> Set[str]:
        return self.operand.function_names()

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True, slots=True)
class Comparison(Expression):
    """A binary comparison: ``left op right`` with op in > < >= <= = <>."""

    op: str
    left: Expression
    right: Expression

    def column_refs(self) -> Set[ColumnRef]:
        return self.left.column_refs() | self.right.column_refs()

    def function_names(self) -> Set[str]:
        return self.left.function_names() | self.right.function_names()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class BooleanOp(Expression):
    """An AND/OR over two or more operands."""

    op: str  # "AND" | "OR"
    operands: Tuple[Expression, ...]

    def column_refs(self) -> Set[ColumnRef]:
        refs: Set[ColumnRef] = set()
        for operand in self.operands:
            refs |= operand.column_refs()
        return refs

    def function_names(self) -> Set[str]:
        names: Set[str] = set()
        for operand in self.operands:
            names |= operand.function_names()
        return names

    def __str__(self) -> str:
        joined = f" {self.op} ".join(str(o) for o in self.operands)
        return f"({joined})"


@dataclass(frozen=True, slots=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def column_refs(self) -> Set[ColumnRef]:
        return self.operand.column_refs()

    def function_names(self) -> Set[str]:
        return self.operand.function_names()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True, slots=True)
class Star(Expression):
    """``SELECT *``."""

    def __str__(self) -> str:
        return "*"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

class Statement(Node):
    """Base class of executable statements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TableRef(Node):
    """A FROM-clause entry: table name plus optional alias."""

    table: str
    alias: str

    def __str__(self) -> str:
        return f"{self.table} {self.alias}" if self.alias != self.table \
            else self.table


@dataclass(frozen=True, slots=True)
class SelectQuery(Statement):
    """``SELECT items FROM tables [WHERE condition]``."""

    select_items: Tuple[Expression, ...]
    tables: Tuple[TableRef, ...]
    where: Optional[Expression] = None

    def alias_of(self, name: str) -> Optional[TableRef]:
        """The table bound to alias ``name``, or None."""
        for table in self.tables:
            if table.alias == name:
                return table
        return None

    def __str__(self) -> str:
        items = ", ".join(str(i) for i in self.select_items)
        tables = ", ".join(str(t) for t in self.tables)
        where = f" WHERE {self.where}" if self.where is not None else ""
        return f"SELECT {items} FROM {tables}{where}"


@dataclass(frozen=True, slots=True)
class ActionParameterDecl(Node):
    """One ``Type name`` pair in a CREATE ACTION signature."""

    type_name: str
    name: str


@dataclass(frozen=True, slots=True)
class CreateActionStatement(Statement):
    """``CREATE ACTION name(...) AS "lib" PROFILE "profile"``."""

    name: str
    parameters: Tuple[ActionParameterDecl, ...]
    library_path: str
    profile_path: str


@dataclass(frozen=True, slots=True)
class CreateAQStatement(Statement):
    """``CREATE AQ name AS SELECT ...`` — an action-embedded
    continuous query, as in the paper's Figure 1."""

    name: str
    query: SelectQuery


@dataclass(frozen=True, slots=True)
class DropAQStatement(Statement):
    """``DROP AQ name`` — deregister a continuous query."""

    name: str


@dataclass(frozen=True, slots=True)
class ExplainStatement(Statement):
    """``EXPLAIN <statement>`` — show the plan without executing."""

    target: Statement
