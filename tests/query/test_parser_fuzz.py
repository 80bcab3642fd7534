"""Property tests: random expression trees survive str() -> parse(), and
statements parse like the reference parsers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query import parse, parse_expression
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
from tests.query.reference_parser import (
    reference_parse,
    reference_parse_expression,
)

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


# ----------------------------------------------------------------------
# Whole statements against the token-object statement parser
# ----------------------------------------------------------------------
#: The pieces a statement is spliced from. A query head is followed by
#: a SELECT; an action or DROP head stands alone (or takes a SELECT as
#: trailing input).
QUERY_HEADS = ("", "EXPLAIN ", "CREATE AQ snapshot AS ", "create aq q1 as ",
               "EXPLAIN CREATE AQ q AS ", "CREATE AQ select AS ",
               "CREATE ", "EXPLAIN EXPLAIN ")
OTHER_HEADS = ("DROP AQ snapshot", "drop aq q1", "DROP AQ select",
               "EXPLAIN DROP AQ x", "DROP q",
               "CREATE ACTION sendphoto(String phone_no, String photo)\n"
               "AS \"lib/users/sendphoto.dll\" PROFILE 'profiles/p.xml'",
               "create action a() as 'l' profile \"p\"",
               "CREATE ACTION b(Int) AS 'l'", "CREATE ACTION c(Int n,)")
ITEMS = ("*", "photo(c.ip, s.loc, \"photos/admin\")", "s.accel_x",
         "id, accel_x", "f()", "-s.x * 2", "'a b'", "TRUE", "NOT x",
         "sendphoto(p.number, \"photos/q.jpg\")", "*, s.x", "1 +")
TABLES = ("sensor s", "sensor s, camera c", "camera", "sensor s, phone s",
          "t a, u b, v a", "sensor", "Sensor S, camera c")
WHERES = ("", " WHERE s.accel_x > 500 AND coverage(c.id, s.loc)",
          "\nWHERE s.temperature >= 30.5 AND s.temperature <= 1e2",
          " WHERE ((s.t > 1 AND s.t < 2) OR s.accel_y > 50000.0)",
          " where not s.light = 100 or s.battery <> 3",
          " WHERE s.x != -.5", " WHERE", " WHERE (s.x > 1",
          " WHERE s.x > 1 > 2", " WHERE false OR a.b / 2 - 3 = x")
TAILS = ("", "", ";", " ;", ";;", " -- trailing comment", ";\n", " x",
         "\n")
NOISE = ("@", "#", "!", "?", "'", '"', "'unterminated", "\"open",
         "²x", "٣", "ſelect", "select", "FROM", "AS", ";", ",", "(", ")",
         ".", "--c\n", "-- c", "\n", " ", "--", "- -", ">=", "<>", "!=",
         "1.5e+3", ".5", "é", "\u00a0", "_u")


@st.composite
def statements(draw):
    if draw(st.integers(min_value=0, max_value=3)):
        pieces = [draw(st.sampled_from(QUERY_HEADS)), "SELECT ",
                  draw(st.sampled_from(ITEMS)), " FROM ",
                  draw(st.sampled_from(TABLES)),
                  draw(st.sampled_from(WHERES))]
    else:
        pieces = [draw(st.sampled_from(OTHER_HEADS))]
    pieces.append(draw(st.sampled_from(TAILS)))
    text = "".join(pieces)
    if draw(st.booleans()):
        text = text.replace(" ", draw(st.sampled_from(
            (" ", "\n", "  ", " -- note\n", "\t\n "))))
    # Splice noise into a few places, from one character to a word.
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))):
        at = draw(st.sampled_from(range(len(text) + 1)))
        text = text[:at] + draw(st.sampled_from(NOISE)) + text[at:]
    return text


def statement_outcome(function, text):
    try:
        return repr(function(text))
    except ParseError as error:
        return (str(error), error.line, error.column)


@settings(max_examples=1000, deadline=None)
@given(statements())
def test_statements_parse_like_the_reference(text):
    """Same AST ``repr``, or the same message, line and column."""
    assert statement_outcome(parse, text) == statement_outcome(
        reference_parse, text)
