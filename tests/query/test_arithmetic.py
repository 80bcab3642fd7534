"""Arithmetic expressions and EXPLAIN in the query dialect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.query import (
    Arithmetic,
    EvaluationContext,
    ExplainStatement,
    FunctionRegistry,
    Negate,
    evaluate,
    parse,
    parse_expression,
)
from repro.query.functions import install_standard_functions
from repro.comm.tuples import DeviceTuple


@pytest.fixture
def context():
    functions = FunctionRegistry()
    install_standard_functions(functions)
    row = DeviceTuple("sensor", "m1", {
        "accel_x": 100.0, "accel_y": 50.0, "temperature": 20.0})
    return EvaluationContext(tuples={"s": row}, functions=functions)


def ev(text, context):
    return evaluate(parse_expression(text), context)


def test_basic_arithmetic(context):
    assert ev("1 + 2", context) == 3
    assert ev("10 - 4", context) == 6
    assert ev("3 * 4", context) == 12
    assert ev("10 / 4", context) == 2.5


def test_precedence_mul_over_add(context):
    assert ev("2 + 3 * 4", context) == 14
    assert ev("(2 + 3) * 4", context) == 20


def test_left_associativity(context):
    assert ev("10 - 3 - 2", context) == 5
    assert ev("100 / 10 / 2", context) == 5


def test_unary_minus(context):
    assert ev("-5", context) == -5
    # Note: "--5" is a SQL comment, so double negation needs parens.
    assert ev("-(-5)", context) == 5
    assert ev("3 + -2", context) == 1


def test_columns_in_arithmetic(context):
    assert ev("s.accel_x + s.accel_y", context) == 150.0
    assert ev("s.accel_x * 2 > 150", context) is True


def test_arithmetic_in_comparison(context):
    assert ev("s.accel_x - s.accel_y > s.temperature", context) is True


def test_arithmetic_in_function_args(context):
    assert ev("abs(s.accel_y - s.accel_x)", context) == 50.0
    assert ev("max(s.accel_x / 2, s.accel_y + 1)", context) == 51.0


def test_string_concatenation(context):
    assert ev('"a" + "b"', context) == "ab"


def test_division_by_zero(context):
    with pytest.raises(QueryError, match="division by zero"):
        ev("1 / 0", context)


def test_type_errors(context):
    with pytest.raises(QueryError, match="needs numbers"):
        ev('"a" * 2', context)
    with pytest.raises(QueryError, match="negate"):
        ev('-"a"', context)


def test_comment_still_works():
    expr = parse_expression("1 + 2 -- trailing comment\n")
    assert isinstance(expr, Arithmetic)


def test_str_round_trip():
    source = "-(a.x + 2) * 3 - b.y / 4"
    tree = parse_expression(source)
    assert parse_expression(str(tree)) == tree


@settings(deadline=None)
@given(st.integers(-100, 100), st.integers(-100, 100),
       st.integers(1, 100))
def test_arithmetic_matches_python(a, b, c):
    context = EvaluationContext()
    result = ev(f"({a}) + ({b}) * ({c})", context)
    assert result == a + b * c
    result = ev(f"({a}) - ({b}) / ({c})", context)
    assert result == pytest.approx(a - b / c)


def test_parse_explain_select():
    statement = parse("EXPLAIN SELECT s.id FROM sensor s")
    assert isinstance(statement, ExplainStatement)


def test_parse_explain_create_aq():
    statement = parse('''EXPLAIN CREATE AQ q AS
        SELECT photo(c.ip, s.loc, "p") FROM sensor s, camera c''')
    assert isinstance(statement, ExplainStatement)


def test_engine_explain_does_not_register():
    from repro import AortaEngine, Environment
    engine = AortaEngine(Environment())
    text = engine.execute('''EXPLAIN CREATE AQ q AS
        SELECT photo(c.ip, s.loc, "p")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    assert "EventScan(sensor AS s)" in text
    assert "SharedAction(photo)" in text
    assert "q" not in engine.continuous.queries


def test_engine_explain_select():
    from repro import AortaEngine, Environment
    engine = AortaEngine(Environment())
    text = engine.execute(
        "EXPLAIN SELECT s.id FROM sensor s WHERE s.accel_x > 500")
    assert "Filter" in text and "Scan(sensor AS s)" in text


def test_engine_explain_drop_rejected():
    from repro import AortaEngine, Environment
    engine = AortaEngine(Environment())
    with pytest.raises(QueryError, match="EXPLAIN supports"):
        engine.execute("EXPLAIN DROP AQ q")
