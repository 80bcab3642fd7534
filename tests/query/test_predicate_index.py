"""Predicate index: indexed matching == brute force, always.

The index is allowed to return candidate supersets internally, but
``match`` must post-filter to exactly the queries whose
:class:`~repro.query.BandForm` admits the tuple. Hypothesis drives
arbitrary band populations (points, closed/open/half-open intervals,
multi-disjunct forms, residuals, band-less and unsatisfiable forms)
against arbitrary rows and checks the match set against evaluating
every form directly; compiled predicates with ORs are checked against
``evaluate`` itself through add / drop / re-add traffic. The rebuild
policy is pinned by counts, never by a clock.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.tuples import DeviceTuple
from repro.errors import QueryError
from repro.profiles.defaults import sensor_catalog
from repro.query import (
    Band,
    BandForm,
    ColumnRef,
    Comparison,
    EvaluationContext,
    Literal,
    PredicateIndex,
    compile_event_predicate,
    evaluate,
    parse_expression,
)

from tests.query import strategies

ATTRIBUTES = ("temperature", "light", "battery")

#: Attribute tuples a disjunct may constrain (the first one routes it).
ROUTES = [(first,) for first in ATTRIBUTES] + [
    (first, second) for first in ATTRIBUTES for second in ATTRIBUTES
    if first != second]

#: A small shared value pool so endpoints, points and row values
#: collide often — the interesting cases live on the boundaries.
VALUES = strategies.values


def interval_band(attribute, low, high, low_strict, high_strict):
    if low > high:
        low, high = high, low
    return Band(attribute, low=low, high=high,
                low_strict=low_strict, high_strict=high_strict)


def band_strategy(attribute):
    point = st.builds(
        lambda v: Band(attribute, point=v, has_point=True), VALUES)
    interval = st.builds(interval_band, st.just(attribute), VALUES,
                         VALUES, st.booleans(), st.booleans())
    open_low = st.builds(
        lambda v, strict: Band(attribute, low=v, low_strict=strict),
        VALUES, st.booleans())
    open_high = st.builds(
        lambda v, strict: Band(attribute, high=v, high_strict=strict),
        VALUES, st.booleans())
    return st.one_of(interval, point, open_low, open_high)


residuals = st.one_of(
    st.none(),
    st.builds(lambda v: Comparison(">", ColumnRef("s", "accel_x"),
                                   Literal(v)), VALUES),
)


@st.composite
def band_forms(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return BandForm(unsatisfiable=True)
    chosen = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True,
                           max_size=2))
    bands = tuple(draw(band_strategy(attribute))
                  for attribute in chosen)
    alternatives = ()
    if bands:
        # Further disjuncts, each routed on its own first band; they
        # may repeat the attributes (and the bands) of the others.
        alternatives = tuple(
            tuple(draw(band_strategy(attribute)) for attribute in more)
            for more in draw(st.lists(st.sampled_from(ROUTES),
                                      max_size=3)))
    return BandForm(bands, draw(residuals), alternatives=alternatives)


@st.composite
def rows(draw):
    values = {attribute: draw(VALUES) for attribute in ATTRIBUTES}
    values["accel_x"] = draw(VALUES)
    return DeviceTuple(device_type="sensor", device_id="m1",
                       values=values)


def residual_test_for(row, calls=None):
    def test(alias, residual):
        if calls is not None:
            calls.append(residual)
        context = EvaluationContext(tuples={alias: row},
                                    functions=strategies.FUNCTIONS)
        return bool(evaluate(residual, context))
    return test


def brute_force(forms, row):
    context = EvaluationContext(tuples={"s": row},
                                functions=strategies.FUNCTIONS)
    return {f"q{i}" for i, form in enumerate(forms)
            if form.matches(row, context)}


def build_index(forms):
    index = PredicateIndex("sensor")
    for i, form in enumerate(forms):
        index.add(f"q{i}", i, "s", form)
    return index


def matched_names(index, row, admit=None):
    return {name for _seq, name
            in index.match(row, residual_test_for(row), admit=admit)}


@settings(max_examples=200, deadline=None)
@given(st.lists(band_forms(), max_size=12), rows())
def test_match_set_equals_brute_force(forms, row):
    index = build_index(forms)
    assert matched_names(index, row) == brute_force(forms, row)


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), min_size=2, max_size=10), rows(),
       st.data())
def test_drop_and_reregister_round_trip(forms, row, data):
    index = build_index(forms)
    before = matched_names(index, row)
    victim = data.draw(st.integers(0, len(forms) - 1))
    index.remove(f"q{victim}")
    without = {name for name in brute_force(forms, row)
               if name != f"q{victim}"}
    assert matched_names(index, row) == without
    index.add(f"q{victim}", victim, "s", forms[victim])
    assert matched_names(index, row) == before


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), max_size=10), rows())
def test_match_returns_seq_with_name(forms, row):
    index = build_index(forms)
    for seq, name in index.match(row, residual_test_for(row)):
        assert name == f"q{seq}"


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), max_size=10), rows())
def test_each_query_is_decided_once_per_row(forms, row):
    """One report, one ``admit`` and at most one residual call per query."""
    index = build_index(forms)
    asked, calls = [], []

    def admit(name):
        asked.append(name)
        return True

    reported = [name for _seq, name
                in index.match(row, residual_test_for(row, calls),
                               admit=admit)]
    assert len(reported) == len(set(reported))
    assert len(asked) == len(set(asked))
    with_residual = [form for form in forms if form.residual is not None]
    assert len(calls) <= len(with_residual)
    stats = index.stats()
    assert stats["matches"] == len(reported)
    assert stats["disjuncts"] == sum(
        0 if form.unsatisfiable else len(form.disjuncts)
        for form in forms)
    assert stats["queries"] == len(forms) == (
        stats["indexed_queries"] + stats["residual_only_queries"]
        + stats["unsatisfiable_queries"])


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), min_size=1, max_size=10), rows())
def test_admit_prefilter_excludes_without_evaluation(forms, row):
    index = build_index(forms)
    allowed = {f"q{i}" for i in range(0, len(forms), 2)}
    names = matched_names(index, row, admit=allowed.__contains__)
    assert names == brute_force(forms, row) & allowed


def test_amortized_rebuild_keeps_matching_exact():
    """Bulk add, then bulk drop: rebuilds fire lazily at lookup time."""
    forms = [BandForm((Band("temperature", low=float(i),
                            high=float(i + 10)),))
             for i in range(300)]
    index = build_index(forms)
    sample = DeviceTuple(device_type="sensor", device_id="m1",
                         values={"temperature": 105.0})
    # First lookup folds the 300-entry overflow into the tree.
    assert matched_names(index, sample) == brute_force(forms, sample)
    assert index.stats()["rebuilds"] == 1
    for i in range(200):
        index.remove(f"q{i}")
    # Tombstones now outnumber the live entries; the next lookup
    # rebuilds again and the dead entries never resurface.
    live = {f"q{i}" for i in range(200, 300)}
    assert matched_names(index, sample) == \
        brute_force(forms, sample) & live
    assert index.stats()["rebuilds"] == 2


def test_unsatisfiable_and_bandless_forms():
    index = PredicateIndex("sensor")
    index.add("never", 0, "s", BandForm(unsatisfiable=True))
    index.add("always", 1, "s", BandForm())
    sample = DeviceTuple(device_type="sensor", device_id="m1",
                         values={"temperature": 1.0})
    assert matched_names(index, sample) == {"always"}
    stats = index.stats()
    assert stats["unsatisfiable_queries"] == 1
    assert stats["residual_only_queries"] == 1


def test_non_numeric_row_value_skips_interval_structures():
    index = PredicateIndex("sensor")
    index.add("ranged", 0, "s",
              BandForm((Band("temperature", low=1.0),)))
    index.add("pointed", 1, "s",
              BandForm((Band("temperature", point="hot",
                             has_point=True),)))
    sample = DeviceTuple(device_type="sensor", device_id="m1",
                         values={"temperature": "hot"})
    # The ill-typed value reaches neither bisect nor compare_values:
    # it can only equal the point bucket.
    assert matched_names(index, sample) == {"pointed"}


# ----------------------------------------------------------------------
# Compiled predicates with ORs == evaluate(), through index traffic
# ----------------------------------------------------------------------
CATALOG = sensor_catalog()


def compiled(predicate):
    return compile_event_predicate(predicate, "s", CATALOG)


def assert_matches_evaluate(index, live, row):
    """The index against ``evaluate`` over the live predicates.

    A well-typed row never raises and the sets are equal. On an
    ill-typed or incomplete row the index may raise where ``evaluate``
    short-circuits (and the reverse), but wherever both give a verdict
    the verdicts agree.
    """
    expected = {name: strategies.holds(predicate, row)
                for name, predicate in live.items()}
    try:
        names = matched_names(index, row)
    except QueryError:
        assert not strategies.is_clean(row)
        return
    if strategies.is_clean(row):
        assert None not in expected.values()
    for name, verdict in expected.items():
        if verdict is not None:
            assert (name in names) == verdict, name
    assert names <= set(live)


any_row = st.one_of(strategies.clean_rows, strategies.dirty_rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(strategies.predicates(), max_size=8), any_row)
def test_compiled_predicates_match_like_evaluate(predicates, row):
    index = PredicateIndex("sensor")
    live = {}
    for i, predicate in enumerate(predicates):
        index.add(f"q{i}", i, "s", compiled(predicate))
        live[f"q{i}"] = predicate
    assert_matches_evaluate(index, live, row)


@settings(max_examples=100, deadline=None)
@given(st.lists(strategies.predicates(), min_size=2, max_size=8),
       st.lists(st.one_of(any_row, st.integers(0, 7)), min_size=4,
                max_size=24))
def test_add_drop_readd_of_multi_disjunct_queries(predicates, steps):
    """Rows are looked up, integers toggle one query in or out.

    Every structure move is crossed: entries go overflow -> tree on
    the first lookups, dropped ones become tombstones (one query owning
    several on one attribute), re-added ones are new overflow entries
    beside their own tombstones, and rebuilds fold it all back.
    """
    index = PredicateIndex("sensor")
    live = {}
    for i, predicate in enumerate(predicates):
        index.add(f"q{i}", i, "s", compiled(predicate))
        live[f"q{i}"] = predicate
    for step in steps:
        if isinstance(step, int):
            victim = step % len(predicates)
            name = f"q{victim}"
            if name in live:
                index.remove(name)
                del live[name]
            else:
                index.add(name, victim, "s", compiled(predicates[victim]))
                live[name] = predicates[victim]
            assert len(index) == len(live)
        else:
            assert_matches_evaluate(index, live, step)
    for name in list(live):
        index.remove(name)
    assert len(index) == 0 and not index._attributes


def test_match_heavy_residual_shape_never_reaches_evaluate():
    """60 ``(band) OR never-true arm`` AQs cost a row nothing extra."""
    index = PredicateIndex("sensor")
    for i in range(60):
        low = 600.0 + 2.0 * i
        index.add(f"q{i:02d}", i, "s", compiled(parse_expression(
            f"((s.accel_x > {low!r} AND s.accel_x < {low + 1.0!r}) "
            f"OR s.accel_y > 50000.0)")))
    stats = index.stats()
    assert stats["residual_only_queries"] == 0
    assert stats["indexed_queries"] == 60
    assert stats["disjuncts"] == 120
    calls = []
    matched = 0
    for step in range(200):
        # Baseline readings: accel_x sweeps across (and between) the
        # bands without landing on an endpoint (the tree's closed hulls
        # would make that a candidate the strict band then refuses);
        # accel_y stays far below the never-true arm.
        accel_x = 590.3 + 0.75 * step
        sample = DeviceTuple(
            device_type="sensor", device_id="m1",
            values={"accel_x": accel_x, "accel_y": float(step % 7),
                    "temperature": 20.0})
        names = index.match(sample, residual_test_for(sample, calls))
        assert [name for _seq, name in names] == [
            f"q{i:02d}" for i in range(60)
            if 600.0 + 2.0 * i < accel_x < 601.0 + 2.0 * i]
        matched += len(names)
    stats = index.stats()
    assert calls == []
    assert matched > 0
    assert stats["candidates_examined"] == stats["matches"] == matched
    assert stats["rebuilds"] == 2  # one tree per accelerometer axis


# ----------------------------------------------------------------------
# Rebuild policy: rent (scan the buffers) or buy (rebuild), by count
# ----------------------------------------------------------------------
def interval(i):
    return BandForm((Band("temperature", low=float(i),
                          high=float(i + 10)),))


PROBE = DeviceTuple(device_type="sensor", device_id="m1",
                    values={"temperature": 4.0})


def test_bulk_add_pays_one_rebuild_at_the_first_lookup():
    for n in (1, 8, 500):
        index = PredicateIndex("sensor")
        for i in range(n):
            index.add(f"q{i}", i, "s", interval(i))
        assert index.stats()["rebuilds"] == 0
        for _ in range(5):
            matched_names(index, PROBE)
        stats = index.stats()
        assert stats["rebuilds"] == 1
        assert stats["linear_scanned"] == 0


def test_a_group_of_eight_is_in_the_tree_after_its_first_lookup():
    index = PredicateIndex("sensor")
    for i in range(8):
        index.add(f"q{i}", i, "s", interval(i))
    matched_names(index, PROBE)
    attribute = index._attributes["temperature"]
    assert attribute._tree is not None
    assert attribute._overflow == []
    # Only the five bands containing the probe are examined, all match.
    stats = index.stats()
    assert stats["candidates_examined"] == stats["matches"] == 5


def test_one_late_add_rents_until_it_has_paid_for_a_rebuild():
    index = PredicateIndex("sensor")
    for i in range(10):
        index.add(f"q{i}", i, "s", interval(i))
    matched_names(index, PROBE)
    index.add("late", 10, "s", interval(3))
    # Eleven live entries: ten lookups walk the one buffered entry,
    # the eleventh would bring the total to the population — rebuild.
    for lookup in range(10):
        matched_names(index, PROBE)
        assert index.stats()["rebuilds"] == 1
        assert index.stats()["linear_scanned"] == lookup + 1
    matched_names(index, PROBE)
    assert index.stats()["rebuilds"] == 2
    assert index.stats()["linear_scanned"] == 10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(1, 12)),
    st.tuples(st.just("drop"), st.integers(1, 12)),
    st.tuples(st.just("lookup"), st.integers(1, 6))), max_size=40))
def test_linear_scanning_never_outgrows_the_population(steps):
    """Between two rebuilds no more is rented than buying costs.

    A lookup that walks buffered or tombstoned entries leaves the
    total walked since the last rebuild below the population it saw —
    otherwise it would have rebuilt instead — so the rent between two
    rebuilds is bounded by the largest population in between.
    """
    index = PredicateIndex("sensor")
    index.add("q0", 0, "s", interval(0))
    live, next_id = ["q0"], 1
    at_rebuild = before = index.stats()
    largest = 1
    for op, count in steps:
        for _ in range(count):
            if op == "add":
                index.add(f"q{next_id}", next_id, "s",
                          interval(next_id % 9))
                live.append(f"q{next_id}")
                next_id += 1
            elif op == "drop" and len(live) > 1:
                index.remove(live.pop(len(live) // 2))
            elif op == "lookup":
                matched_names(index, PROBE)
                stats = index.stats()
                rented = stats["linear_scanned"] \
                    - at_rebuild["linear_scanned"]
                if stats["rebuilds"] > before["rebuilds"]:
                    assert stats["rebuilds"] == before["rebuilds"] + 1
                    assert stats["linear_scanned"] \
                        == before["linear_scanned"]
                    assert rented <= largest
                    at_rebuild, largest = stats, 0
                elif stats["linear_scanned"] > before["linear_scanned"]:
                    assert rented < len(live)
                before = stats
            largest = max(largest, len(live))


def temperature_interval():
    return st.builds(lambda band: BandForm((band,)), st.builds(
        interval_band, st.just("temperature"), VALUES, VALUES,
        st.booleans(), st.booleans()))


@settings(max_examples=100, deadline=None)
@given(st.lists(temperature_interval(), min_size=2, max_size=4),
       st.lists(band_forms(), max_size=6),
       st.lists(band_forms(), max_size=6),
       st.lists(rows(), min_size=1, max_size=3),
       st.lists(st.one_of(
           st.tuples(st.just("add"), band_forms()),
           st.tuples(st.just("drop"), st.integers(0, 20)),
           st.tuples(st.just("lookup"), st.integers(0, 2))), max_size=30))
def test_the_stab_memo_never_serves_a_stale_set(
        intervals, first, second, pool, steps):
    """A tree memoizes each elementary piece's stab, so the rows here
    come from a pool of at most three, all over the small value pool:
    lookups keep landing on memoized pieces. Every lookup is checked
    against brute force over the live forms — after the first tree is
    built, after drops leave tombstones in it, after a rent-or-buy
    rebuild replaces it, after adds buffer beside it, and through
    interleaved add / drop / lookup traffic."""
    index = PredicateIndex("sensor")
    live, dropped = {}, set()
    temperature = []  # the attribute's tree count after each phase

    def add(form):
        seq = len(live) + len(dropped)
        index.add(f"q{seq}", seq, "s", form)
        live[f"q{seq}"] = form

    def drop(name):
        index.remove(name)
        dropped.add(name)
        del live[name]

    def lookup(row):
        context = EvaluationContext(tuples={"s": row},
                                    functions=strategies.FUNCTIONS)
        expected = {name for name, form in live.items()
                    if form.matches(row, context)}
        assert matched_names(index, row) == expected

    def rebuilds():
        return index._attributes["temperature"].rebuilds

    def lookups_until_rebuild():
        """Look up the pool until the temperature tree is rebuilt;
        rent-or-buy bounds the rounds by the live population."""
        start = rebuilds()
        for _ in range(len(live) + 2):
            for row in pool:
                lookup(row)
                lookup(row)  # the same pieces again: served by memo
            if rebuilds() != start:
                break
        temperature.append(rebuilds())

    for form in (*intervals, *first):
        add(form)
    lookups_until_rebuild()             # the first tree, memo filled
    drop("q0")                          # a tombstone in that tree
    for name in list(live)[len(intervals) - 1::2]:
        drop(name)
    lookups_until_rebuild()             # filtered, then rebuilt
    for form in (intervals[-1], *second):
        add(form)
    lookups_until_rebuild()             # buffered, then rebuilt
    assert temperature == [1, 2, 3]

    for op, argument in steps:
        if op == "add":
            add(argument)
        elif op == "drop" and live:
            drop(sorted(live)[argument % len(live)])
        elif op == "lookup":
            lookup(pool[argument % len(pool)])


# ----------------------------------------------------------------------
# Post-filter cost on the match-heavy band mix
# ----------------------------------------------------------------------
def band_mix(i):
    """Query ``i``'s event predicate in the match-heavy band mix: 93 %
    narrow temperature intervals, 3 % light points, 3 % open battery
    ranges (quiet on the rows below) and 1 % ORs over both
    accelerometer axes, one disjunct per arm."""
    kind = i % 100
    if kind < 93:
        low = ((i * 7919) % 99_000) / 99.0
        return f"s.temperature >= {low!r} AND s.temperature <= {low + 0.2!r}"
    if kind < 96:
        return f"s.light = {float((i % 41) * 25)!r}"
    if kind < 99:
        return f"s.battery > {99.0 + (i % 97) / 100.0!r}"
    return f"s.accel_x > {990.0 + (i % 10)!r} OR s.accel_y > 995.0"


def test_the_band_mix_examines_at_most_two_candidates_per_match():
    index = PredicateIndex("sensor")
    for i in range(2000):
        index.add(f"aq{i:06d}", i, "s",
                  compiled(parse_expression(band_mix(i))))
    matched = 0
    for j in range(4):
        row = DeviceTuple(device_type="sensor", device_id=f"s{j:03d}",
                          values={
                              "accel_x": float((j * 29) % 1000),
                              "accel_y": float((j * 31) % 1000),
                              "temperature": ((j * 37) % 997) * 1000.0 / 997,
                              "light": float(((j * 7) % 41) * 25),
                              "battery": ((j * 13) % 990) / 10.0})
        matched += len(index.match(row, residual_test_for(row)))
    stats = index.stats()
    assert stats["matches"] == matched > 0
    assert stats["candidates_examined"] <= 2 * stats["matches"]
