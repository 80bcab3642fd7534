"""Hypothesis strategies shared by the band-form and index tests.

Predicates are drawn as ASTs over the sensor table: top-level
conjunctions of banded comparisons, ORs (2–4 arms of 1–2 comparisons,
attributes repeating across arms; sometimes with an arm the band form
must refuse) and residual conjuncts. Up to three ORs, so the product
of arms crosses :data:`~repro.query.bands.MAX_DISJUNCTS` now and then.
Rows come from one small value pool, so literals, endpoints and
readings collide; *dirty* rows also carry ill-typed and missing
attributes.
"""

from hypothesis import strategies as st

from repro.comm.tuples import DeviceTuple
from repro.errors import QueryError
from repro.query import (
    BooleanOp,
    ColumnRef,
    Comparison,
    EvaluationContext,
    FunctionCall,
    FunctionRegistry,
    Literal,
    evaluate,
)
from repro.query.functions import install_standard_functions

#: Numeric sensor attributes the drawn comparisons constrain.
ATTRIBUTES = ("temperature", "light", "battery", "accel_x")

#: One pool for literals and readings, so the boundaries get hit.
VALUES = (0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 7.5, 10.0)

FUNCTIONS = FunctionRegistry()
install_standard_functions(FUNCTIONS)

values = st.sampled_from(VALUES)
attributes = st.sampled_from(ATTRIBUTES)


@st.composite
def comparisons(draw):
    """``s.attr op literal`` in either orientation: always band-able."""
    column = ColumnRef("s", draw(attributes))
    literal = Literal(draw(values))
    op = draw(st.sampled_from((">", ">=", "<", "<=", "=")))
    if draw(st.booleans()):
        return Comparison(op, column, literal)
    return Comparison(op, literal, column)


#: Conjuncts no band expresses. They read ``accel_y``, which rows
#: always carry well-typed, so they evaluate cleanly on every row.
refused = st.one_of(
    st.builds(lambda v: Comparison("<>", ColumnRef("s", "accel_y"),
                                   Literal(v)), values),
    st.builds(lambda v: Comparison(
        "<", FunctionCall("abs", (ColumnRef("s", "accel_y"),)),
        Literal(v)), values),
)


def _conjunction(parts):
    return parts[0] if len(parts) == 1 else BooleanOp("AND", tuple(parts))


@st.composite
def ors(draw):
    """An OR of 2–4 arms; one time in five an arm is not band-able."""
    arms = [_conjunction(draw(st.lists(comparisons(), min_size=1,
                                       max_size=2)))
            for _ in range(draw(st.integers(2, 4)))]
    if draw(st.integers(0, 4)) == 0:
        arms[draw(st.integers(0, len(arms) - 1))] = draw(refused)
    return BooleanOp("OR", tuple(arms))


@st.composite
def predicates(draw):
    """A top-level conjunction of bands, ORs and residual conjuncts."""
    parts = draw(st.lists(comparisons(), max_size=2))
    parts += draw(st.lists(ors(), max_size=3))
    parts += draw(st.lists(refused, max_size=1))
    if not parts:
        return None
    return _conjunction(draw(st.permutations(parts)))


def _row(readings):
    readings.setdefault("accel_y", 4.0)
    return DeviceTuple(device_type="sensor", device_id="m1",
                       values=readings)


#: Well-typed rows carrying every attribute.
clean_rows = st.fixed_dictionaries(
    {attribute: values for attribute in ATTRIBUTES}).map(_row)

_MISSING = object()

#: Rows where an attribute may be a string, None, or absent.
dirty_rows = st.fixed_dictionaries({
    attribute: st.one_of(values, values,
                         st.sampled_from(("hot", None, _MISSING)))
    for attribute in ATTRIBUTES
}).map(lambda readings: _row(
    {name: value for name, value in readings.items()
     if value is not _MISSING}))


def is_clean(row):
    return all(isinstance(row.get(attribute), float)
               for attribute in ATTRIBUTES)


def holds(predicate, row):
    """``evaluate``'s verdict on one row, or None where it raises."""
    if predicate is None:
        return True
    context = EvaluationContext(tuples={"s": row}, functions=FUNCTIONS)
    try:
        return bool(evaluate(predicate, context))
    except QueryError:
        return None
