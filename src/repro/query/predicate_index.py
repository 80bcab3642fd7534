"""Event→AQ predicate index: route a tuple to the queries it matches.

One :class:`PredicateIndex` serves one event table. Each registered
query contributes its :class:`~repro.query.bands.BandForm`; the index
files one entry per *disjunct* of the form under that disjunct's
*primary* (first) band's attribute — a point band lands in a hash
bucket keyed by the literal, an interval band lands in a segment tree
over the elementary pieces of all interval endpoints. Forms with no
bands at all (WHERE-less or fully residual predicates) live on a
scan-always list, and unsatisfiable forms are filed nowhere.

A lookup stabs every attribute structure with the tuple's value for
that attribute, unions the scan-always list, and post-filters each
candidate exactly (every band re-checked numerically, the residual
expression evaluated) — the structures only need to return supersets,
so endpoint strictness and tombstoned entries are resolved in the
post-filter, never in the tree. A query with several disjuncts is
decided once per tuple: its first admitting disjunct settles it, the
shared residual runs at most once, and it is reported once.

Incremental maintenance: new intervals buffer in an *overflow* list
(scanned linearly at lookup) and removals tombstone tree entries
(filtered by a liveness check). Rebuilds are lazy and rent-or-buy: an
attribute counts the buffered and tombstoned entries its lookups have
walked since the last rebuild, and the lookup that would bring that
count up to the live population folds everything into a fresh tree
instead. Scanning is renting, a rebuild costs about one pass over the
population, so no more is ever rented than buying would have cost —
whatever the population: a bulk registration of 100k queries pays zero
rebuilds and the first scan afterwards exactly one, a group of eight
bands is in its tree after its first lookup, and interleaved
add/drop/lookup traffic stays amortized O(log n) per operation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.tuples import DeviceTuple
from repro.query.ast import Expression
from repro.query.bands import Band, BandForm

#: Exact membership test for one candidate's residual expression, given
#: the query's event alias: ``residual_test(alias, expression)``.
ResidualTest = Callable[[str, Expression], bool]

_NUMERIC = (int, float)
_INF = float("inf")


class _IndexEntry:
    """One disjunct of one registered query: the unit the index files."""

    __slots__ = ("name", "seq", "alias", "bands", "residual", "shared")

    def __init__(self, name: str, seq: int, alias: str,
                 bands: Tuple[Band, ...], residual: Optional[Expression],
                 shared: bool) -> None:
        self.name = name
        self.seq = seq
        self.alias = alias
        self.bands = bands
        #: The query's residual (the same object on every disjunct).
        self.residual = residual
        #: Whether the query has other entries, i.e. must be decided
        #: once per tuple rather than once per entry.
        self.shared = shared


class _IntervalTree:
    """Static segment tree over the elementary pieces of the endpoints.

    The value line is cut at every distinct finite endpoint ``b`` into
    pieces ``(..., b0) [b0] (b0, b1) [b1] ...`` — ``2n + 1`` pieces for
    ``n`` endpoints. Each interval covers a contiguous piece range and
    is stored on the O(log n) canonical nodes of an implicit array
    tree; a stab walks one leaf-to-root path and unions the node lists.
    Nodes live in a dict so the (mostly empty) array is never
    materialized. Strictness is ignored here — closed-piece coverage
    yields a superset the caller's band re-check tightens.

    A tree never changes once built (a rebuild builds a new one), so
    each piece's stab is computed once and memoized; tombstoned entries
    stay in it for the caller to filter.
    """

    __slots__ = ("_bounds", "_size", "_nodes", "_stabbed")

    def __init__(self, entries: List[_IndexEntry]) -> None:
        bounds = set()
        for entry in entries:
            band = entry.bands[0]
            if band.low != -_INF:
                bounds.add(band.low)
            if band.high != _INF:
                bounds.add(band.high)
        self._bounds = sorted(bounds)
        pieces = 2 * len(self._bounds) + 1
        size = 1
        while size < pieces:
            size <<= 1
        self._size = size
        self._nodes: Dict[int, List[_IndexEntry]] = {}
        for entry in entries:
            band = entry.bands[0]
            left = 0 if band.low == -_INF else self._piece(band.low)
            right = pieces - 1 if band.high == _INF \
                else self._piece(band.high)
            lo, hi = left + size, right + size + 1
            while lo < hi:
                if lo & 1:
                    self._nodes.setdefault(lo, []).append(entry)
                    lo += 1
                if hi & 1:
                    hi -= 1
                    self._nodes.setdefault(hi, []).append(entry)
                lo >>= 1
                hi >>= 1
        #: Piece -> the entries a stab anywhere in it returns.
        self._stabbed: Dict[int, Tuple[_IndexEntry, ...]] = {}

    def _piece(self, value: float) -> int:
        index = bisect_left(self._bounds, value)
        if index < len(self._bounds) and self._bounds[index] == value:
            return 2 * index + 1
        return 2 * index

    def stab(self, value: float) -> Tuple[_IndexEntry, ...]:
        """Every stored interval whose closed hull contains ``value``."""
        piece = self._piece(value)
        stabbed = self._stabbed.get(piece)
        if stabbed is None:
            out: List[_IndexEntry] = []
            nodes = self._nodes
            index = piece + self._size
            while index:
                bucket = nodes.get(index)
                if bucket:
                    out.extend(bucket)
                index >>= 1
            stabbed = self._stabbed[piece] = tuple(out)
        return stabbed


class AttributeIndex:
    """All primary bands of one (event-table, attribute) pair."""

    __slots__ = ("_points", "_point_count", "_live", "_tree", "_overflow",
                 "_dead", "_scanned", "rebuilds", "linear_scanned")

    def __init__(self) -> None:
        #: Point bands, bucketed by literal value.
        self._points: Dict[Any, List[_IndexEntry]] = {}
        self._point_count = 0
        #: Live interval entries in insertion order, keyed by identity
        #: (the liveness oracle for tombstoned tree slots; one query
        #: may own several).
        self._live: Dict[_IndexEntry, None] = {}
        self._tree: Optional[_IntervalTree] = None
        #: Interval entries added since the last rebuild.
        self._overflow: List[_IndexEntry] = []
        #: Tree entries dropped since the last rebuild.
        self._dead = 0
        #: Overflow and tombstoned entries walked by lookups since the
        #: last rebuild — the rent paid so far.
        self._scanned = 0
        self.rebuilds = 0
        #: Lifetime total of ``_scanned`` (never reset).
        self.linear_scanned = 0

    def __len__(self) -> int:
        return len(self._live) + self._point_count

    def add(self, entry: _IndexEntry) -> None:
        band = entry.bands[0]
        if band.has_point:
            self._points.setdefault(band.point, []).append(entry)
            self._point_count += 1
            return
        self._live[entry] = None
        self._overflow.append(entry)

    def remove(self, entry: _IndexEntry) -> None:
        band = entry.bands[0]
        if band.has_point:
            bucket = self._points[band.point]
            bucket.remove(entry)
            self._point_count -= 1
            if not bucket:
                del self._points[band.point]
            return
        del self._live[entry]
        if entry in self._overflow:
            self._overflow.remove(entry)
        else:
            self._dead += 1

    def _rebuild(self) -> None:
        self._tree = _IntervalTree(list(self._live))
        self._overflow = []
        self._dead = 0
        self._scanned = 0
        self.rebuilds += 1

    def collect(self, value: Any, out: List[_IndexEntry]) -> None:
        """Append every candidate entry for one attribute value."""
        try:
            bucket = self._points.get(value)
        except TypeError:  # unhashable value cannot equal any literal
            bucket = None
        if bucket:
            out.extend(bucket)
        live = self._live
        if not live:
            return
        # Interval bands exist only for numeric attributes; a
        # non-numeric value (ill-typed row) matches none of them and
        # must not reach the tree's bisect.
        if not isinstance(value, _NUMERIC):
            return
        # Rent or buy: this lookup would walk every buffered add and
        # (at worst) every tombstone. Once the walked total since the
        # last rebuild would reach the live population, building the
        # tree is the cheaper move (a bulk registration pays one
        # rebuild, on its first lookup).
        pending = len(self._overflow) + self._dead
        if pending:
            if self._scanned + pending >= len(live):
                self._rebuild()
            else:
                self._scanned += pending
                self.linear_scanned += pending
        if self._tree is not None:
            if self._dead:
                out.extend(entry for entry in self._tree.stab(value)
                           if entry in live)
            else:
                out.extend(self._tree.stab(value))
        out.extend(self._overflow)


class PredicateIndex:
    """The event→AQ index of one event table."""

    def __init__(self, table: str) -> None:
        self.table = table
        self._attributes: Dict[str, AttributeIndex] = {}
        #: Band-less forms, brute-forced per tuple (insertion order).
        self._scan_always: Dict[str, _IndexEntry] = {}
        #: Query name -> its filed entries, one per disjunct (none for
        #: an unsatisfiable form).
        self._entries: Dict[str, Tuple[_IndexEntry, ...]] = {}
        self.lookups = 0
        self.candidates_examined = 0
        self.matches = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def add(self, name: str, seq: int, alias: str,
            form: BandForm) -> None:
        """File one registered query: an entry per disjunct of its form."""
        if form.unsatisfiable:
            self._entries[name] = ()  # matches nothing; filed nowhere
            return
        disjuncts = form.disjuncts
        entries = tuple(
            _IndexEntry(name, seq, alias, bands, form.residual,
                        shared=len(disjuncts) > 1)
            for bands in disjuncts)
        self._entries[name] = entries
        for entry in entries:
            if not entry.bands:
                self._scan_always[name] = entry
                continue
            primary = entry.bands[0].attribute
            attribute = self._attributes.get(primary)
            if attribute is None:
                attribute = self._attributes[primary] = AttributeIndex()
            attribute.add(entry)

    def remove(self, name: str) -> None:
        """Unfile a dropped query (no-op for unknown names)."""
        for entry in self._entries.pop(name, ()):
            if not entry.bands:
                del self._scan_always[name]
                continue
            primary = entry.bands[0].attribute
            attribute = self._attributes[primary]
            attribute.remove(entry)
            if not len(attribute):
                del self._attributes[primary]

    def match(self, row: DeviceTuple, residual_test: ResidualTest,
              admit: Optional[Callable[[str], bool]] = None,
              ) -> List[Tuple[int, str]]:
        """Exactly the queries whose predicate admits ``row``.

        Returns ``(seq, name)`` pairs, one per matching query
        (registration order is the seq order). ``admit`` pre-filters
        candidates by name before any predicate work — the executor
        passes the enabled check, so disabled queries cost nothing and
        see no evaluation, exactly like the scan-all path. Each query
        is decided at most once: ``admit`` and ``residual_test`` run at
        most once per query however many of its disjuncts are
        candidates.
        """
        self.lookups += 1
        values = row.values
        candidates: List[_IndexEntry] = []
        for name, attribute in self._attributes.items():
            if name in values:
                attribute.collect(values[name], candidates)
        candidates.extend(self._scan_always.values())
        self.candidates_examined += len(candidates)
        out: List[Tuple[int, str]] = []
        #: Multi-disjunct queries met on this row: True once decided
        #: (refused, or a disjunct admitted), False while only failed
        #: disjuncts have been seen.
        decided: Dict[str, bool] = {}
        for entry in candidates:
            name = entry.name
            if entry.shared:
                state = decided.get(name)
                if state:
                    continue
                if state is None:
                    decided[name] = refused = \
                        admit is not None and not admit(name)
                    if refused:
                        continue
            elif admit is not None and not admit(name):
                continue
            for band in entry.bands:
                try:
                    value = values[band.attribute]
                except KeyError:
                    value = row[band.attribute]  # the tuple's QueryError
                if not band.admits(value):
                    break
            else:
                if entry.shared:
                    decided[name] = True
                if entry.residual is None \
                        or residual_test(entry.alias, entry.residual):
                    self.matches += 1
                    out.append((entry.seq, name))
        return out

    def stats(self) -> Dict[str, int]:
        """Size and traffic counters for statistics() reporting.

        Populations are counted per query, not per filed entry;
        ``disjuncts`` is the number of entries filed and
        ``linear_scanned`` the buffered and tombstoned entries lookups
        walked instead of rebuilding.
        """
        populations = [len(entries) for entries in self._entries.values()]
        unsatisfiable = populations.count(0)
        return {
            "queries": len(populations),
            "indexed_queries": len(populations) - unsatisfiable
            - len(self._scan_always),
            "residual_only_queries": len(self._scan_always),
            "unsatisfiable_queries": unsatisfiable,
            "disjuncts": sum(populations),
            "lookups": self.lookups,
            "candidates_examined": self.candidates_examined,
            "matches": self.matches,
            "rebuilds": sum(attribute.rebuilds for attribute
                            in self._attributes.values()),
            "linear_scanned": sum(attribute.linear_scanned for attribute
                                  in self._attributes.values()),
        }
