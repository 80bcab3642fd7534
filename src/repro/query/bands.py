"""Normalized band form of continuous-query event predicates.

An AQ's event predicate is a conjunction over one event alias; the
indexable part of that conjunction is a set of *bands* — per-attribute
interval or point constraints of the shape ``s.attr op literal``.
:func:`compile_event_predicate` splits a predicate into

* one or more *disjuncts*, each holding one :class:`Band` per
  constrained attribute (same-attribute constraints intersect at
  compile time, so ``x > 3 AND x < 9`` is one band and ``x > 5 AND
  x < 3`` is recognized as unsatisfiable). A conjunctive predicate has
  one disjunct; a conjunct that is an OR of band-able arms is
  distributed over the other bands, so ``t > 1 AND (x < 3 OR y = 2)``
  has the disjuncts ``{t > 1, x < 3}`` and ``{t > 1, y = 2}`` — a
  bounded DNF of at most :data:`MAX_DISJUNCTS` disjuncts; and
* a *residual* expression holding every conjunct the band form cannot
  express (NOT, function calls, cross-column comparisons, string
  ordering, and any OR with such an arm) — shared by all disjuncts and
  evaluated per candidate tuple exactly like the scan-all executor
  would.

The band form is the unit the predicate index routes on; its
``matches`` method is the exact (non-superset) membership test, reusing
:func:`~repro.query.expressions.compare_values` so banded conjuncts
keep the comparison semantics of the expression evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.tuples import DeviceTuple
from repro.profiles.schema import DeviceCatalog
from repro.query.ast import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
)
from repro.query.expressions import (
    LOCATION_PSEUDO_COLUMN,
    EvaluationContext,
    compare_values,
    evaluate,
)

_INF = float("inf")

#: Comparison operator seen from the column's side when the literal is
#: on the left (``5 < s.x`` reads as ``s.x > 5``).
_FLIPPED_OPS = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "="}

_NUMERIC_TYPES = (int, float)

#: Most disjuncts one predicate's ORs may multiply out to; past it the
#: ORs stay in the residual, as every OR did before they were routed.
MAX_DISJUNCTS = 16


@dataclass(frozen=True, slots=True)
class Band:
    """One attribute's conjunctive constraint: an interval or a point.

    A *point* band (``has_point``) is an equality constraint keyed by
    dictionary lookup in the index; an *interval* band is a numeric
    range with per-end strictness (``low_strict`` means ``value >
    low``, inclusive otherwise). Unused ends stay at +/-infinity.
    """

    attribute: str
    point: Any = None
    has_point: bool = False
    low: float = -_INF
    high: float = _INF
    low_strict: bool = False
    high_strict: bool = False

    def admits(self, value: Any) -> bool:
        """Whether ``value`` satisfies this band.

        Delegates to :func:`compare_values`, so type errors (e.g. a
        string value against a numeric interval) raise the same
        :class:`~repro.errors.QueryError` the scan-all evaluator would.
        """
        if self.has_point:
            return compare_values("=", value, self.point)
        if self.low != -_INF and not compare_values(
                ">" if self.low_strict else ">=", value, self.low):
            return False
        if self.high != _INF and not compare_values(
                "<" if self.high_strict else "<=", value, self.high):
            return False
        return True

    def intersect(self, other: "Band") -> Optional["Band"]:
        """The conjunction of two same-attribute bands.

        Returns ``None`` when the conjunction is unsatisfiable (empty
        interval, contradictory points, or a point outside the other
        band's range).
        """
        if self.has_point and other.has_point:
            return self if self.point == other.point else None
        if self.has_point or other.has_point:
            point, ranged = ((self, other) if self.has_point
                             else (other, self))
            if not isinstance(point.point, _NUMERIC_TYPES):
                # A non-numeric point can never satisfy a numeric
                # interval — the conjunction is empty, exactly as the
                # scan-all evaluator's short-circuiting ``=`` would
                # report False before the interval conjunct errors.
                return None
            return point if ranged.admits(point.point) else None
        low, low_strict = self.low, self.low_strict
        if other.low > low or (other.low == low and other.low_strict):
            low, low_strict = other.low, other.low_strict
        high, high_strict = self.high, self.high_strict
        if other.high < high or (other.high == high and other.high_strict):
            high, high_strict = other.high, other.high_strict
        if low > high or (low == high and (low_strict or high_strict)):
            return None
        return Band(self.attribute, low=low, high=high,
                    low_strict=low_strict, high_strict=high_strict)

    def __str__(self) -> str:
        if self.has_point:
            return f"{self.attribute} = {self.point!r}"
        left = "" if self.low == -_INF else \
            f"{self.low} {'<' if self.low_strict else '<='} "
        right = "" if self.high == _INF else \
            f" {'<' if self.high_strict else '<='} {self.high}"
        return f"{left}{self.attribute}{right}"


@dataclass(frozen=True, slots=True)
class BandForm:
    """The normalized form of one event predicate.

    ``bands`` are conjunctive per-attribute constraints (at most one
    per attribute); ``residual`` is the conjunction of everything the
    band form cannot express, or ``None``. An empty form (no bands, no
    residual) matches every tuple — the shape of a WHERE-less AQ. An
    ``unsatisfiable`` form matches nothing.

    A predicate with a routed OR is a disjunction of band sets under
    the one shared residual: ``bands`` is its first disjunct and
    ``alternatives`` the others, each with at least one band. The
    index lookup routes on each disjunct's first band.
    """

    bands: Tuple[Band, ...] = ()
    residual: Optional[Expression] = None
    unsatisfiable: bool = False
    alternatives: Tuple[Tuple[Band, ...], ...] = ()

    @property
    def disjuncts(self) -> Tuple[Tuple[Band, ...], ...]:
        """Every band set of the form: ``bands``, then the alternatives."""
        return (self.bands,) + self.alternatives

    def matches(self, row: DeviceTuple,
                context: EvaluationContext) -> bool:
        """Exact membership: some disjunct admits, the residual holds.

        ``context`` must already have the event alias bound to ``row``
        for residual evaluation.
        """
        if self.unsatisfiable:
            return False
        if not any(all(band.admits(row[band.attribute]) for band in bands)
                   for bands in self.disjuncts):
            return False
        if self.residual is not None:
            return bool(evaluate(self.residual, context))
        return True


def conjuncts_of(expression: Optional[Expression]) -> List[Expression]:
    """Flatten nested ANDs into their conjunct list."""
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.op == "AND":
        flattened: List[Expression] = []
        for operand in expression.operands:
            flattened.extend(conjuncts_of(operand))
        return flattened
    return [expression]


def conjoin(conjuncts: List[Expression]) -> Optional[Expression]:
    """Rebuild a conjunction from a conjunct list (None when empty)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BooleanOp("AND", tuple(conjuncts))


def _band_of(conjunct: Expression, event_alias: str,
             catalog: DeviceCatalog) -> Optional[Band]:
    """The band one conjunct expresses, or None if non-indexable."""
    if not isinstance(conjunct, Comparison):
        return None
    if isinstance(conjunct.left, ColumnRef) \
            and isinstance(conjunct.right, Literal):
        ref, literal, op = conjunct.left, conjunct.right, conjunct.op
    elif isinstance(conjunct.right, ColumnRef) \
            and isinstance(conjunct.left, Literal):
        ref, literal = conjunct.right, conjunct.left
        op = _FLIPPED_OPS.get(conjunct.op, "")
    else:
        return None
    if op not in _FLIPPED_OPS:
        return None  # <> (and anything exotic) stays residual
    if ref.qualifier and ref.qualifier != event_alias:
        return None
    if ref.name == LOCATION_PSEUDO_COLUMN \
            or not catalog.has_attribute(ref.name):
        return None
    value = literal.value
    if op == "=":
        # Point bands hold any literal: dict-bucket lookup agrees with
        # ``=`` for every literal type (1 == 1.0 == True included).
        return Band(ref.name, point=value, has_point=True)
    # Ordering ops band only when both sides are numeric; a string
    # column (or string literal against a numeric column) would make
    # the comparison row-dependent on errors, so it stays residual.
    if catalog.attribute(ref.name).python_type not in _NUMERIC_TYPES:
        return None
    if not isinstance(value, _NUMERIC_TYPES):
        return None
    bound = float(value)
    if op == ">":
        return Band(ref.name, low=bound, low_strict=True)
    if op == ">=":
        return Band(ref.name, low=bound)
    if op == "<":
        return Band(ref.name, high=bound, high_strict=True)
    return Band(ref.name, high=bound)


def _merged(bands: Dict[str, Band],
            more: Dict[str, Band]) -> Optional[Dict[str, Band]]:
    """``bands`` AND ``more`` per attribute; None when contradictory."""
    merged = dict(bands)
    for attribute, band in more.items():
        existing = merged.get(attribute)
        if existing is not None:
            band = existing.intersect(band)
            if band is None:
                return None
        merged[attribute] = band
    return merged


def _arms_of(conjunct: Expression, event_alias: str,
             catalog: DeviceCatalog) -> Optional[List[Dict[str, Band]]]:
    """The band sets of an OR whose every arm is a band conjunction.

    ``None`` for anything else (not an OR, or an arm holding a conjunct
    :func:`_band_of` refuses — that OR stays residual). Arms that
    contradict themselves are dropped, so the list may be empty.
    """
    if not isinstance(conjunct, BooleanOp) or conjunct.op != "OR":
        return None
    arms: List[Dict[str, Band]] = []
    for operand in conjunct.operands:
        arm: Optional[Dict[str, Band]] = {}
        for part in conjuncts_of(operand):
            band = _band_of(part, event_alias, catalog)
            if band is None:
                return None
            if arm is not None:
                arm = _merged(arm, {band.attribute: band})
        if arm is not None:
            arms.append(arm)
    return arms


def compile_event_predicate(predicate: Optional[Expression],
                            event_alias: str,
                            catalog: DeviceCatalog) -> BandForm:
    """Split an event predicate into band disjuncts plus a residual.

    Top-level conjuncts of the shape ``alias.attr op literal`` (either
    orientation; the alias may be implicit) become bands; same-attribute
    bands intersect, and a contradictory intersection yields an
    unsatisfiable form. A top-level conjunct that is an OR of
    conjunctions of such comparisons is distributed over those bands:
    one disjunct per arm (per combination of arms when there are
    several ORs), contradictory disjuncts dropped. Everything else is
    re-conjoined into the residual in its original order, preserving
    the evaluator's AND short-circuit behaviour among residual
    conjuncts. ORs that would multiply out to more than
    :data:`MAX_DISJUNCTS` disjuncts all stay residual.
    """
    if predicate is None:
        return BandForm()
    common: Dict[str, Band] = {}
    #: Non-band conjuncts in source order, with the arms of routable ORs.
    others: List[Tuple[Expression, Optional[List[Dict[str, Band]]]]] = []
    for conjunct in conjuncts_of(predicate):
        band = _band_of(conjunct, event_alias, catalog)
        if band is None:
            others.append(
                (conjunct, _arms_of(conjunct, event_alias, catalog)))
            continue
        merged = _merged(common, {band.attribute: band})
        if merged is None:
            return BandForm(unsatisfiable=True)
        common = merged
    disjuncts = [common]
    for _conjunct, arms in others:
        if arms is None:
            continue
        disjuncts = [both for bands in disjuncts for arm in arms
                     if (both := _merged(bands, arm)) is not None]
        if len(disjuncts) > MAX_DISJUNCTS:
            return BandForm(tuple(common.values()),
                            conjoin([conjunct for conjunct, _ in others]))
    if not disjuncts:
        return BandForm(unsatisfiable=True)
    first, *rest = (tuple(bands.values()) for bands in disjuncts)
    return BandForm(
        first,
        conjoin([conjunct for conjunct, arms in others if arms is None]),
        alternatives=tuple(rest))
