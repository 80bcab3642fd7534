"""Band-form compilation: predicates -> per-attribute bands + residual."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.tuples import DeviceTuple
from repro.errors import QueryError
from repro.profiles.defaults import sensor_catalog
from repro.query import (
    Band,
    BandForm,
    EvaluationContext,
    FunctionRegistry,
    compile_event_predicate,
    evaluate,
    parse_expression,
)
from repro.query.bands import MAX_DISJUNCTS

from tests.query import strategies

INF = float("inf")


def compile_sql(text):
    return compile_event_predicate(parse_expression(text), "s",
                                   sensor_catalog())


def row(**values):
    defaults = {"id": "m1", "loc_x": 0.0, "loc_y": 0.0, "accel_x": 0.0,
                "accel_y": 0.0, "temperature": 20.0, "light": 100.0,
                "battery": 50.0}
    defaults.update(values)
    return DeviceTuple(device_type="sensor", device_id="m1",
                       values=defaults)


def context_for(tuple_row):
    return EvaluationContext(tuples={"s": tuple_row},
                             functions=FunctionRegistry())


class TestCompile:
    def test_interval_conjunction_is_one_band(self):
        form = compile_sql(
            "s.temperature >= 10 AND s.temperature < 20")
        assert form.residual is None
        assert form.bands == (Band("temperature", low=10.0, high=20.0,
                                   low_strict=False, high_strict=True),)

    def test_literal_on_the_left_flips(self):
        form = compile_sql("5 < s.temperature")
        (band,) = form.bands
        assert (band.low, band.low_strict, band.high) == (5.0, True, INF)

    def test_equality_becomes_point_band(self):
        form = compile_sql('s.id = "m7"')
        assert form.bands == (Band("id", point="m7", has_point=True),)
        assert form.residual is None

    def test_open_ended_range(self):
        form = compile_sql("s.battery > 1")
        (band,) = form.bands
        assert (band.low, band.low_strict, band.high) == (1.0, True, INF)

    def test_string_ordering_stays_residual(self):
        form = compile_sql('s.id > "a"')
        assert form.bands == ()
        assert form.residual is not None

    def test_residual_preserves_non_band_conjuncts(self):
        form = compile_sql(
            "s.temperature > 10 AND (s.accel_x > 1 OR s.accel_y <> 1)")
        assert len(form.bands) == 1
        assert form.alternatives == ()
        assert form.residual is not None
        sample = row(temperature=20.0, accel_x=5.0)
        assert evaluate(form.residual, context_for(sample)) is True

    def test_contradictory_intersection_is_unsatisfiable(self):
        form = compile_sql("s.temperature > 5 AND s.temperature < 3")
        assert form.unsatisfiable
        assert not form.matches(row(temperature=4.0),
                                context_for(row(temperature=4.0)))

    def test_point_inside_interval_keeps_the_point(self):
        form = compile_sql("s.temperature = 15 AND s.temperature > 10")
        assert form.bands == (Band("temperature", point=15,
                                   has_point=True),)

    def test_point_outside_interval_is_unsatisfiable(self):
        form = compile_sql("s.temperature = 5 AND s.temperature > 10")
        assert form.unsatisfiable

    def test_not_equal_stays_residual(self):
        form = compile_sql("s.temperature <> 5")
        assert form.bands == ()
        assert form.residual is not None

    def test_loc_pseudo_column_stays_residual(self):
        form = compile_sql("s.loc = 3")
        assert form.bands == ()
        assert form.residual is not None

    def test_foreign_qualifier_stays_residual(self):
        form = compile_sql('c.ip = "10.0.0.1"')
        assert form.bands == ()
        assert form.residual is not None

    def test_unqualified_reference_bands(self):
        form = compile_sql("temperature > 7")
        (band,) = form.bands
        assert band.attribute == "temperature"

    def test_none_predicate_matches_everything(self):
        form = compile_event_predicate(None, "s", sensor_catalog())
        assert form == BandForm()
        sample = row()
        assert form.matches(sample, context_for(sample))


class TestDisjuncts:
    """ORs of band-able arms are distributed; anything else is not."""

    def test_or_of_comparisons_is_one_disjunct_per_arm(self):
        form = compile_sql("s.accel_x > 1 OR s.accel_y > 2")
        assert form.residual is None
        assert form.disjuncts == (
            (Band("accel_x", low=1.0, low_strict=True),),
            (Band("accel_y", low=2.0, low_strict=True),))

    def test_the_match_heavy_residual_shape(self):
        form = compile_sql("((s.accel_x > 600.0 AND s.accel_x < 601.0) "
                           "OR s.accel_y > 50000.0)")
        assert form.residual is None
        assert form.disjuncts == (
            (Band("accel_x", low=600.0, high=601.0, low_strict=True,
                  high_strict=True),),
            (Band("accel_y", low=50000.0, low_strict=True),))

    def test_or_distributes_over_the_other_bands(self):
        form = compile_sql("s.temperature > 10 AND "
                           "(s.accel_x > 1 OR s.light = 100) AND "
                           "s.temperature < 30")
        hot = Band("temperature", low=10.0, high=30.0, low_strict=True,
                   high_strict=True)
        assert form.disjuncts == (
            (hot, Band("accel_x", low=1.0, low_strict=True)),
            (hot, Band("light", point=100, has_point=True)))
        assert form.residual is None

    def test_same_attribute_bands_intersect_per_disjunct(self):
        form = compile_sql("s.temperature > 10 AND "
                           "(s.temperature < 20 OR s.temperature > 30 "
                           "OR s.temperature < 5)")
        # The third arm contradicts the common band and is dropped.
        assert form.disjuncts == (
            (Band("temperature", low=10.0, high=20.0, low_strict=True,
                  high_strict=True),),
            (Band("temperature", low=30.0, low_strict=True),))

    def test_contradictory_arm_is_dropped(self):
        form = compile_sql("(s.light > 5 AND s.light < 3) OR s.battery > 9")
        assert form.disjuncts == (
            (Band("battery", low=9.0, low_strict=True),),)

    def test_all_arms_contradictory_is_unsatisfiable(self):
        form = compile_sql("s.light > 50 AND (s.light < 3 OR s.light = 7)")
        assert form.unsatisfiable

    def test_residual_conjuncts_are_shared_in_source_order(self):
        form = compile_sql(
            "s.accel_y <> 3 AND (s.accel_x > 1 OR s.light > 2) "
            "AND abs(s.accel_y) < 9")
        assert len(form.disjuncts) == 2
        assert form.residual == parse_expression(
            "s.accel_y <> 3 AND abs(s.accel_y) < 9")

    @pytest.mark.parametrize("arm", [
        "abs(s.accel_y) > 1",          # function call
        "s.accel_y <> 1",              # no band for <>
        "NOT s.accel_y > 1",
        "s.accel_y > s.accel_x",       # cross-column
        's.id > "a"',                  # string ordering
        "(s.accel_y > 1 OR s.light > 2) AND s.battery > 3",
    ])
    def test_or_with_an_unbandable_arm_stays_residual(self, arm):
        text = f"s.temperature > 10 AND (s.accel_x > 1 OR {arm})"
        form = compile_sql(text)
        assert form.disjuncts == (
            (Band("temperature", low=10.0, low_strict=True),),)
        assert form.residual == parse_expression(
            f"s.accel_x > 1 OR {arm}")

    def test_only_the_unbandable_or_stays_residual(self):
        form = compile_sql("(s.accel_x > 1 OR s.light > 2) AND "
                           "(s.battery > 3 OR s.accel_y <> 4)")
        assert len(form.disjuncts) == 2
        assert form.residual == parse_expression(
            "s.battery > 3 OR s.accel_y <> 4")

    def test_product_at_the_cap_is_distributed(self):
        four = "(s.{0} < 1 OR s.{0} = 2 OR s.{0} = 3 OR s.{0} > 4)"
        form = compile_sql(
            four.format("light") + " AND " + four.format("battery"))
        assert len(form.disjuncts) == MAX_DISJUNCTS
        assert form.residual is None

    def test_product_past_the_cap_keeps_the_single_form(self):
        four = "(s.{0} < 1 OR s.{0} = 2 OR s.{0} = 3 OR s.{0} > 4)"
        text = ("s.temperature > 10 AND " + four.format("light") + " AND "
                + four.format("battery")
                + " AND (s.accel_x > 1 OR s.accel_y > 1)")
        form = compile_sql(text)
        assert form.disjuncts == (
            (Band("temperature", low=10.0, low_strict=True),),)
        assert form.residual == parse_expression(
            text.partition(" AND ")[2])


class TestBand:
    def test_admits_respects_strictness(self):
        band = Band("temperature", low=10.0, high=20.0, low_strict=True)
        assert not band.admits(10.0)
        assert band.admits(10.5)
        assert band.admits(20.0)
        assert not band.admits(20.5)

    def test_point_band_equality_semantics(self):
        band = Band("light", point=1, has_point=True)
        assert band.admits(1.0)  # same as the evaluator's "="
        assert not band.admits(2)

    def test_admits_type_mismatch_raises_like_the_evaluator(self):
        band = Band("temperature", low=10.0)
        with pytest.raises(QueryError):
            band.admits("hot")

    def test_interval_intersection_tightens_both_ends(self):
        merged = Band("x", low=1.0, high=9.0).intersect(
            Band("x", low=3.0, high=12.0, low_strict=True))
        assert merged == Band("x", low=3.0, high=9.0, low_strict=True)

    def test_empty_intersection_is_none(self):
        assert Band("x", low=5.0).intersect(Band("x", high=3.0)) is None
        assert Band("x", low=5.0, low_strict=True).intersect(
            Band("x", high=5.0)) is None

    def test_non_numeric_point_against_interval_is_empty(self):
        point = Band("x", point="hot", has_point=True)
        assert point.intersect(Band("x", low=1.0)) is None


class TestMatchesEquivalence:
    """BandForm.matches is the predicate, exactly."""

    CASES = [
        "s.temperature >= 10 AND s.temperature < 20",
        "s.temperature > 10 AND s.light = 100 AND s.battery <= 60",
        's.id = "m1" AND s.temperature < 25',
        "s.accel_x > 1 OR s.accel_y > 1",
        "s.temperature > 10 AND (s.accel_x > 1 OR s.light = 100)",
        "(s.temperature < 12 AND s.light = 99) OR s.accel_y >= 3",
        "s.battery <= 60 AND (s.accel_x > 1 OR s.accel_y <> 3)",
    ]

    ROWS = [
        {"temperature": 15.0, "light": 100.0, "battery": 50.0},
        {"temperature": 10.0, "light": 99.0, "battery": 60.0},
        {"temperature": 30.0, "accel_x": 2.0},
        {"accel_y": 3.0, "light": 100.0},
    ]

    @pytest.mark.parametrize("sql", CASES)
    @pytest.mark.parametrize("values", ROWS)
    def test_matches_agrees_with_evaluate(self, sql, values):
        predicate = parse_expression(sql)
        form = compile_event_predicate(predicate, "s", sensor_catalog())
        sample = row(**values)
        context = context_for(sample)
        assert form.matches(sample, context) == bool(
            evaluate(predicate, context))


@settings(max_examples=300, deadline=None)
@given(strategies.predicates(),
       st.one_of(strategies.clean_rows, strategies.dirty_rows))
def test_compiled_form_is_the_predicate(predicate, sample):
    """Bounded DNF + shared residual == ``evaluate``, row by row.

    On a well-typed row neither side raises. On an ill-typed or
    incomplete one either side may (bands are checked before the
    residual, and a disjunct may be tried that ``evaluate``'s OR
    short-circuit skipped), but two clean verdicts never differ.
    """
    form = compile_event_predicate(predicate, "s", sensor_catalog())
    assert all(bands for bands in form.alternatives)
    assert len(form.disjuncts) <= MAX_DISJUNCTS
    expected = strategies.holds(predicate, sample)
    context = EvaluationContext(tuples={"s": sample},
                                functions=strategies.FUNCTIONS)
    try:
        verdict = form.matches(sample, context)
    except QueryError:
        verdict = None
    if strategies.is_clean(sample):
        assert expected is not None and verdict is not None
    if expected is not None and verdict is not None:
        assert verdict == expected
