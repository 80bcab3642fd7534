"""Unit tests for the SQL parser, anchored on the paper's examples."""

import os
import sys

import pytest

from repro.errors import ParseError
from repro.query import (
    BooleanOp,
    ColumnRef,
    Comparison,
    CreateActionStatement,
    CreateAQStatement,
    DropAQStatement,
    FunctionCall,
    Literal,
    Not,
    SelectQuery,
    Star,
    parse,
    parse_expression,
)
from tests.query.reference_parser import reference_parse

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: The paper's Figure 1 example, verbatim structure.
FIGURE_1 = '''CREATE AQ snapshot AS
SELECT photo(c.ip, s.loc, "photos/admin")
FROM sensor s, camera c
WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''

#: The paper's Section 2.2 CREATE ACTION example.
SECTION_2_2 = '''CREATE ACTION sendphoto(String phone_no,
String photo_pathname)
AS "lib/users/sendphoto.dll"
PROFILE "profiles/users/sendphoto.xml"'''


def test_parse_figure_1_query():
    statement = parse(FIGURE_1)
    assert isinstance(statement, CreateAQStatement)
    assert statement.name == "snapshot"
    query = statement.query
    assert [(t.table, t.alias) for t in query.tables] == [
        ("sensor", "s"), ("camera", "c")]
    action = query.select_items[0]
    assert isinstance(action, FunctionCall)
    assert action.name == "photo"
    assert action.args == (
        ColumnRef("c", "ip"), ColumnRef("s", "loc"),
        Literal("photos/admin"))
    where = query.where
    assert isinstance(where, BooleanOp) and where.op == "AND"
    threshold, coverage = where.operands
    assert threshold == Comparison(">", ColumnRef("s", "accel_x"),
                                   Literal(500))
    assert coverage == FunctionCall(
        "coverage", (ColumnRef("c", "id"), ColumnRef("s", "loc")))


def test_parse_section_2_2_create_action():
    statement = parse(SECTION_2_2)
    assert isinstance(statement, CreateActionStatement)
    assert statement.name == "sendphoto"
    assert [(p.type_name, p.name) for p in statement.parameters] == [
        ("String", "phone_no"), ("String", "photo_pathname")]
    assert statement.library_path == "lib/users/sendphoto.dll"
    assert statement.profile_path == "profiles/users/sendphoto.xml"


def test_parse_drop_aq():
    statement = parse("DROP AQ snapshot;")
    assert statement == DropAQStatement(name="snapshot")


def test_parse_plain_select():
    statement = parse("SELECT id, accel_x FROM sensor")
    assert isinstance(statement, SelectQuery)
    assert statement.tables[0].alias == "sensor"  # alias defaults to name
    assert statement.where is None


def test_parse_select_star():
    statement = parse("SELECT * FROM camera c")
    assert statement.select_items == (Star(),)


def test_create_action_without_parameters():
    statement = parse('CREATE ACTION ping() AS "lib/ping.dll" '
                      'PROFILE "profiles/ping.xml"')
    assert statement.parameters == ()


def test_operator_precedence_or_under_and():
    expr = parse_expression("a = 1 OR b = 2 AND c = 3")
    assert isinstance(expr, BooleanOp) and expr.op == "OR"
    right = expr.operands[1]
    assert isinstance(right, BooleanOp) and right.op == "AND"


def test_parentheses_override_precedence():
    expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
    assert isinstance(expr, BooleanOp) and expr.op == "AND"
    assert isinstance(expr.operands[0], BooleanOp)
    assert expr.operands[0].op == "OR"


def test_not_binds_tighter_than_and():
    expr = parse_expression("NOT a = 1 AND b = 2")
    assert isinstance(expr, BooleanOp) and expr.op == "AND"
    assert isinstance(expr.operands[0], Not)


def test_bang_equals_normalized():
    expr = parse_expression("a != 1")
    assert isinstance(expr, Comparison) and expr.op == "<>"


def test_boolean_literals():
    assert parse_expression("TRUE") == Literal(True)
    assert parse_expression("false") == Literal(False)


def test_nested_function_calls():
    expr = parse_expression("min(distance(s.loc, c.loc), 10.0)")
    assert isinstance(expr, FunctionCall) and expr.name == "min"
    assert isinstance(expr.args[0], FunctionCall)


def test_duplicate_alias_rejected():
    with pytest.raises(ParseError, match="duplicate table alias"):
        parse("SELECT * FROM sensor s, camera s")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse("SELECT * FROM sensor s extra stuff nonsense")


def test_error_carries_position():
    with pytest.raises(ParseError, match="line"):
        parse("SELECT FROM sensor")


def test_missing_profile_clause_rejected():
    with pytest.raises(ParseError, match="PROFILE"):
        parse('CREATE ACTION f() AS "lib/f.dll"')


def test_create_requires_action_or_aq():
    with pytest.raises(ParseError, match="ACTION or AQ"):
        parse("CREATE TABLE t")


def test_expression_round_trips_through_str():
    """str(ast) is parseable and yields the same tree (pretty-printing)."""
    source = "s.accel_x > 500 AND coverage(c.id, s.loc) OR NOT ok(a.b)"
    tree = parse_expression(source)
    assert parse_expression(str(tree)) == tree


def test_query_str_round_trip():
    statement = parse(FIGURE_1)
    assert parse(str(statement.query)) == statement.query


def test_duplicate_alias_error_points_at_the_repeat():
    with pytest.raises(ParseError, match="duplicate table alias") as raised:
        parse("SELECT * FROM sensor s, camera s")
    assert (raised.value.line, raised.value.column) == (1, 32)
    with pytest.raises(ParseError, match=r"\['c', 's'\]") as raised:
        parse("SELECT *\nFROM sensor s, camera c,\n  phone c, sensor s")
    assert (raised.value.line, raised.value.column) == (3, 9)


def test_a_string_holding_a_double_quote_round_trips_through_str():
    """The lexer has no escapes, so such a string renders in '...'."""
    tree = parse_expression("s.name = 'say \"hi\"'")
    assert str(tree) == "(s.name = 'say \"hi\"')"
    assert parse_expression(str(tree)) == tree
    tree = parse_expression("s.name = \"it's\"")
    assert parse_expression(str(tree)) == tree


# ----------------------------------------------------------------------
# Error behaviour: message, line and column
# ----------------------------------------------------------------------
def parse_error(text):
    with pytest.raises(ParseError) as raised:
        parse(text)
    return str(raised.value), raised.value.line, raised.value.column


def test_a_bad_character_wins_over_an_earlier_grammar_error():
    # "SELECT FROM" is wrong first; the "@" on line 2 is reported.
    assert parse_error("SELECT FROM sensor s\nWHERE s.x > @") == (
        "unexpected character '@' (line 2, column 13)", 2, 13)


def test_an_error_on_line_3_reports_line_3():
    text = ("CREATE AQ q AS\n"
            "SELECT photo(c.ip) FROM sensor s, camera c\n"
            "WHERE s.x > AND coverage(c.id, s.loc)")
    assert parse_error(text) == (
        "expected an expression, found 'AND' (line 3, column 13)", 3, 13)


def test_an_unterminated_string_at_the_end_is_reported_at_its_quote():
    text = 'CREATE ACTION f() AS "lib/f.dll" PROFILE "prof'
    assert parse_error(text) == (
        "unterminated string literal (line 1, column 42)", 1, 42)


def test_a_trailing_comment_without_a_newline_is_accepted():
    assert parse("DROP AQ q -- gone") == DropAQStatement(name="q")
    assert parse("DROP AQ q; -- gone") == DropAQStatement(name="q")


def test_drop_aq_of_a_keyword_names_the_keyword():
    assert parse_error("DROP AQ select") == (
        "expected an identifier, found 'SELECT' (line 1, column 9)", 1, 9)


# ----------------------------------------------------------------------
# Every statement the end-to-end workloads register
# ----------------------------------------------------------------------
class _StatementRecorder:
    """Stands in for the fleet ``install_sendphoto`` sets up."""

    def __init__(self):
        self.statements = []

    def install_action_code(self, *args, **kwargs):
        pass

    def install_action_profile(self, *args, **kwargs):
        pass

    def execute(self, text):
        self.statements.append(text)


def e2e_statements():
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
    try:
        from workloads import WORKLOADS, build, install_sendphoto
    finally:
        sys.path.pop(0)
    recorder = _StatementRecorder()
    install_sendphoto(recorder)
    texts = list(recorder.statements)
    for workload in WORKLOADS:
        job = build(workload, 20050610, 1, smoke=True)
        texts += [aq.sql() for aq in job.aqs]
        texts += [aq.sql() for _at, _drop, aqs in job.churn for aq in aqs]
    return texts


def test_every_e2e_statement_parses_like_the_reference():
    texts = e2e_statements()
    assert len(texts) > 400 and texts[0].lstrip().startswith("CREATE ACTION")
    for text in texts:
        assert repr(parse(text)) == repr(reference_parse(text)), text
