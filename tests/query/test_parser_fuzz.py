"""Property tests: random expression trees survive str() -> parse()."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query import parse_expression
from repro.query.ast import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    Literal,
    Negate,
    Not,
)
from tests.query.reference_parser import reference_parse_expression

identifiers = st.sampled_from(["s", "c", "t", "accel_x", "temp", "loc"])

literals = st.one_of(
    st.integers(min_value=0, max_value=10_000).map(Literal),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False,
              allow_infinity=False).map(lambda f: Literal(round(f, 6))),
    st.booleans().map(Literal),
    st.text(alphabet="abcxyz_/. ", max_size=12).map(Literal),
)

column_refs = st.builds(ColumnRef, qualifier=identifiers, name=identifiers)


def expressions(children):
    comparisons = st.builds(
        Comparison,
        op=st.sampled_from([">", "<", ">=", "<=", "=", "<>"]),
        left=children, right=children)
    arithmetic = st.builds(
        Arithmetic,
        op=st.sampled_from(["+", "-", "*", "/"]),
        left=children, right=children)
    boolean = st.builds(
        BooleanOp,
        op=st.sampled_from(["AND", "OR"]),
        operands=st.tuples(children, children))
    calls = st.builds(
        FunctionCall,
        name=st.sampled_from(["coverage", "distance", "f"]),
        args=st.tuples(children))
    return st.one_of(comparisons, arithmetic, boolean,
                     st.builds(Not, children),
                     st.builds(Negate, children), calls)


expression_trees = st.recursive(
    st.one_of(literals, column_refs), expressions, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expression_trees)
def test_str_parse_round_trip(tree):
    """Pretty-printing any tree and re-parsing it yields the same tree."""
    rendered = str(tree)
    assert parse_expression(rendered) == tree


@settings(max_examples=100, deadline=None)
@given(expression_trees)
def test_column_refs_survive_round_trip(tree):
    rendered = str(tree)
    assert parse_expression(rendered).column_refs() == tree.column_refs()


@settings(max_examples=300, deadline=None)
@given(expression_trees)
def test_flat_descent_builds_the_reference_tree(tree):
    """The flattened descent gives the seven-level descent's AST."""
    rendered = str(tree)
    assert parse_expression(rendered) == reference_parse_expression(rendered)


@settings(max_examples=300, deadline=None)
@given(st.lists(expression_trees, min_size=2, max_size=4),
       st.lists(st.sampled_from([" AND ", " OR ", " + ", " - ", " * ",
                                 " / ", " > ", " != ", " AND NOT ",
                                 " OR -"]),
                min_size=3, max_size=3))
def test_unbracketed_chains_parse_like_the_reference(trees, joins):
    """Operands joined without brackets: precedence and n-ary flattening.

    Some joins make no expression (``0 > 0 > 0``); then both raise the
    same error.
    """
    text = str(trees[0])
    for join, tree in zip(joins, trees[1:]):
        text += join + str(tree)
    assert parsed(parse_expression, text) == parsed(
        reference_parse_expression, text)


def parsed(function, text):
    try:
        return function(text)
    except ParseError as error:
        return str(error)
