"""Event-driven execution of registered continuous queries.

"Many pervasive computing applications have an event-driven and
action-oriented processing nature: when the application detects an
event, a pre-defined action on some type of devices is triggered."
(Section 2.2) The executor polls the event tables' scan operators —
one shared scan per table regardless of how many queries read it —
and matches each scanned tuple against the registered queries.

Each query's event predicate is compiled to a
:class:`~repro.query.bands.BandForm` at registration and filed in a
per-table :class:`~repro.query.PredicateIndex`; each scanned row is
routed to exactly the queries whose bands admit it, instead of being
evaluated against every registered query. Matches are emitted
query-major in registration order — the order a walk over every
(query, row) pair produces, which is the reference the tests compare
against. Query lifecycle, per-query stats and edge-trigger memory live
in one :class:`~repro.query.QueryCatalog`.

A detected event's candidate devices come from
:meth:`ContinuousQueryExecutor._candidates`, which keeps the answers of
predicates over static state across polls (DESIGN.md decision 16).

Each table's scan acquires only the sensory columns its readers
reference on the event alias (DESIGN.md decision 28): the executor
keeps that union per table, updated at CREATE / DROP AQ, and sets it
on the table's scan operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import AortaError, PlanError, RegistrationError
from repro.actions.request import ActionRequest
from repro.comm.layer import CommunicationLayer
from repro.comm.scan import ScanOperator
from repro.comm.tuples import DeviceTuple
from repro.plan.planner import ContinuousPlan
from repro.devices.base import Device, static_epoch
from repro.query.ast import ColumnRef, Expression
from repro.query.bands import compile_event_predicate
from repro.query.expressions import (
    LOCATION_PSEUDO_COLUMN,
    EvaluationContext,
    evaluate,
)
from repro.query.functions import FunctionRegistry
from repro.query.predicate_index import PredicateIndex
from repro.obs.metrics import Counter
from repro.query.query_catalog import QueryCatalog, RegisteredQuery
from repro.sim import Environment
from repro.core.dispatcher import Dispatcher

__all__ = ["ContinuousQueryExecutor", "RegisteredQuery"]

#: Key of one cached candidate set within its device table: (device
#: alias, candidate predicate, values of the event-side columns the
#: predicate reads). Two queries with the same predicate share it.
_CandidateKey = Tuple[str, Expression, Tuple[Any, ...]]


#: Candidate sets one device table keeps before starting over.
_CANDIDATE_SETS_LIMIT = 4096

#: Virtual seconds between the end of one poll and the start of the
#: next.
POLL_INTERVAL = 1.0


@dataclass
class _CandidateSets:
    """One device table's candidate sets and the static epoch they hold
    for.

    ``devices`` and ``static`` are the table's members and their static
    rows at ``epoch``. A lookup at any other epoch (a join, a leave or a
    re-mount anywhere) replaces the entry.
    """

    epoch: int
    devices: List[Device]
    static: List[Dict[str, Any]]
    sets: Dict[_CandidateKey, Tuple[str, ...]] = field(default_factory=dict)
    interned: Dict[Tuple[str, ...], Tuple[str, ...]] = field(
        default_factory=dict)

    def intern(self, candidates: Tuple[str, ...]) -> Tuple[str, ...]:
        """The table's one tuple equal to ``candidates``.

        A request keeps its candidate set for life, so equal sets built
        for different events (every camera covering every mote)
        would otherwise be that many copies.
        """
        if len(self.interned) >= _CANDIDATE_SETS_LIMIT:
            self.interned.clear()
        return self.interned.setdefault(candidates, candidates)


class ContinuousQueryExecutor:
    """Runs every registered AQ against the live device network."""

    def __init__(
        self,
        env: Environment,
        comm: CommunicationLayer,
        functions: FunctionRegistry,
        dispatcher: Dispatcher,
    ) -> None:
        self.env = env
        self.comm = comm
        self.functions = functions
        self.dispatcher = dispatcher
        #: Query lifecycle, per-table reader lists and edge memory.
        self.catalog = QueryCatalog()
        #: Per-event-table predicate indexes.
        self._indexes: Dict[str, PredicateIndex] = {}
        self._scans: Dict[str, ScanOperator] = {}
        #: Event table -> how many of its readers read each sensory
        #: column (``_sensory_reads``); the keys are the projection its
        #: scan acquires.
        self._projection: Dict[str, Dict[str, int]] = {}
        #: Device table -> cached candidate sets (DESIGN.md decisions
        #: 16 and 35), valid at one static epoch: ``coverage()`` answers
        #: for whichever registered device its argument names.
        self._candidate_sets: Dict[str, _CandidateSets] = {}
        self._running = False
        #: The engine's observability sink (shared via the dispatcher).
        self.obs = dispatcher.obs
        registry = self.obs.registry
        self._polls = registry.counter("continuous.polls")
        # Cumulative per query name, across DROP and re-CREATE (the
        # per-registration counts live on the RegisteredQuery).
        self._events_detected, self._uncovered_events, \
            self._requests_emitted = (
                registry.family(Counter, f"continuous.{name}", "query")
                for name in ("events_detected", "uncovered_events",
                             "requests_emitted"))

    @property
    def queries(self) -> Dict[str, RegisteredQuery]:
        """Query name -> registered query (the catalog's live map)."""
        return self.catalog.queries

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, plan: ContinuousPlan, *, priority: int = 1,
                 deadline_seconds: Optional[float] = None,
                 ) -> RegisteredQuery:
        """Install a planned AQ (the CREATE AQ effect).

        ``priority`` and ``deadline_seconds`` are stamped on every
        request the query emits; they only influence behaviour when the
        engine's overload-control plane is on.
        """
        if plan.query_name in self.catalog:
            raise RegistrationError(
                f"query {plan.query_name!r} is already registered"
            )
        self._check_candidate_predicate(plan)
        band_form = compile_event_predicate(
            plan.event_predicate, plan.event_alias,
            self.comm.catalog(plan.event_table))
        query = RegisteredQuery(plan=plan, priority=priority,
                                deadline_seconds=deadline_seconds)
        self.dispatcher.operator_for(plan.action).attach(plan.query_name)
        self.catalog.register(query)
        self._index_for(plan.event_table).add(
            query.name, query.seq, plan.event_alias, band_form)
        counts = self._projection.setdefault(plan.event_table, {})
        for column in self._sensory_reads(plan):
            counts[column] = counts.get(column, 0) + 1
        self._project(plan.event_table)
        self.dispatcher.obs.tracer.record(
            self.env.now, "query_registered", query=plan.query_name,
            action=plan.action.name)
        return query

    def drop(self, name: str) -> None:
        """Remove a query (the DROP AQ effect)."""
        if name not in self.catalog:
            raise RegistrationError(f"no registered query {name!r}")
        query = self.catalog.drop(name)
        table = query.plan.event_table
        if table not in self.catalog.by_table:
            # Last reader gone: retire the table's scan and index so an
            # idle table stops polling (and costs nothing until a new
            # reader registers).
            self._scans.pop(table, None)
            del self._indexes[table]
            del self._projection[table]
        else:
            self._indexes[table].remove(name)
            counts = self._projection[table]
            for column in self._sensory_reads(query.plan):
                counts[column] -= 1
                if not counts[column]:
                    del counts[column]
            self._project(table)
        # Requests still waiting out the batch window end here, through
        # the dispatcher's failure exit; those already in a batch finish.
        for request in self.dispatcher.operator_for(
                query.plan.action).detach(name):
            self.dispatcher._fail(request, None, "query dropped")
        self.dispatcher.obs.tracer.record(self.env.now, "query_dropped",
                                          query=name)

    def _check_candidate_predicate(self, plan: ContinuousPlan) -> None:
        """Candidate predicates may only read the device's static data.

        Sensory device attributes would need a live read per candidate
        per event; availability and status go through probing instead
        (Section 4), so we reject such predicates at registration.
        """
        if plan.candidate_predicate is None:
            return
        catalog = self.comm.catalog(plan.device_table)
        for ref in plan.candidate_predicate.column_refs():
            if ref.qualifier != plan.device_alias:
                continue
            if ref.name == LOCATION_PSEUDO_COLUMN:
                continue
            if catalog.attribute(ref.name).sensory:
                raise PlanError(
                    f"candidate predicate of {plan.query_name!r} reads "
                    f"sensory attribute {ref.name!r}; device status is "
                    f"obtained by probing, not by candidate predicates"
                )

    def _event_refs(self, plan: ContinuousPlan, predicate: Expression
                    ) -> Optional[Tuple[ColumnRef, ...]]:
        """The event-side columns a cacheable candidate predicate reads.

        ``None`` when the candidate set must be evaluated afresh for
        every event: a function not registered as stable over static
        state may answer differently next time, a sensory reading of
        the event device is a new input nearly every time, and an
        unqualified column cannot be assigned to either side ahead of
        binding.
        """
        if not all(self.functions.is_stable(name)
                   for name in predicate.function_names()):
            return None
        refs = predicate.column_refs()
        if not all(ref.qualifier for ref in refs):
            return None
        event_refs = sorted(
            (ref for ref in refs if ref.qualifier != plan.device_alias),
            key=lambda ref: (ref.qualifier, ref.name))
        catalog = self.comm.catalog(plan.event_table)
        if any(ref.name != LOCATION_PSEUDO_COLUMN
               and catalog.attribute(ref.name).sensory
               for ref in event_refs):
            return None
        return tuple(event_refs)

    def _sensory_reads(self, plan: ContinuousPlan) -> Set[str]:
        """The sensory columns of the event row an AQ reads.

        Its event predicate, candidate predicate and argument
        expressions, on the event alias. An unqualified column may be
        either side's, so it reads the whole row.
        """
        catalog = self.comm.catalog(plan.event_table)
        sensory = {attr.name for attr in catalog.sensory_attributes}
        reads: Set[str] = set()
        for expression in (plan.event_predicate, plan.candidate_predicate,
                           *plan.argument_expressions.values()):
            if expression is None:
                continue
            for ref in expression.column_refs():
                if not ref.qualifier:
                    return sensory
                if ref.qualifier == plan.event_alias:
                    reads.add(ref.name)
        return sensory & reads

    def _project(self, table: str) -> None:
        """Narrow the table's scan, if it has one, to the sensory columns
        its readers read, in catalog order."""
        scan = self._scans.get(table)
        if scan is not None:
            counts = self._projection[table]
            scan.columns = tuple(attr.name
                                 for attr in scan.catalog.sensory_attributes
                                 if attr.name in counts)

    def _index_for(self, table: str) -> PredicateIndex:
        if table not in self._indexes:
            self._indexes[table] = PredicateIndex(table)
        return self._indexes[table]

    def index_stats(self) -> Dict[str, int]:
        """Summed per-table predicate-index counters."""
        totals: Dict[str, int] = {"tables": len(self._indexes)}
        for index in self._indexes.values():
            for key, value in index.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # The polling loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the polling loop as a simulation process."""
        if self._running:
            raise AortaError("continuous executor already started")
        self._running = True
        self.env.process(self._run())

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield from self.poll_once()
            yield self.env.timeout(POLL_INTERVAL)

    def poll_once(self) -> Generator[Any, Any, int]:
        """One detection pass over all event tables; returns emit count.

        The scan of each event table is shared by every query reading
        it — one network acquisition per poll regardless of how many
        queries watch the same sensors.
        """
        self._polls.inc()
        emitted = 0
        # Detached: dispatch batches emitted by this poll outlive it on
        # concurrent processes, so they must not nest under the poll.
        with self.obs.span("continuous.poll", detached=True):
            for table in list(self.catalog.by_table):
                if not any(q.enabled
                           for q in self.catalog.readers(table)):
                    continue
                scan = self._scan_for(table)
                columns = scan.columns
                rows = yield from scan.scan()
                emitted += self._detect_indexed(table, rows, columns)
        return emitted

    def _scan_for(self, table: str) -> ScanOperator:
        if table not in self._scans:
            self._scans[table] = self.comm.scan_operator(table)
            self._project(table)
        return self._scans[table]

    # ------------------------------------------------------------------
    # Event detection
    # ------------------------------------------------------------------
    def _detect_indexed(self, table: str, rows: List[DeviceTuple],
                        columns: Tuple[str, ...]) -> int:
        """Route each row through the table's predicate index.

        Matching is event-at-a-time, but emission replays query-major
        in registration order — the order of a walk over every
        (query, row) pair — so traces and request ids do not depend on
        how the index is laid out. The index is read after the scan:
        queries may have been registered or dropped while the
        acquisition was in flight. The rows carry only the sensory
        ``columns`` they were read with; a query registered meanwhile
        that reads another one is not matched against them and sees the
        next poll.
        """
        index = self._indexes.get(table)
        if index is None:
            return 0  # last reader dropped mid-scan
        queries = self.catalog.queries
        read = frozenset(columns)
        covered = read.issuperset(self._projection[table])

        def admit(name: str) -> bool:
            query = queries.get(name)
            return (query is not None and query.enabled
                    and (covered or read.issuperset(
                        self._sensory_reads(query.plan))))

        # One context per detection pass, rebound per residual call
        # (queries of one table may use different event aliases).
        context = EvaluationContext(tuples={}, functions=self.functions)
        bound = context.tuples
        row: DeviceTuple

        def test(alias: str, residual: Expression) -> bool:
            bound.clear()
            bound[alias] = row
            return bool(evaluate(residual, context))

        matched: Dict[str, List[DeviceTuple]] = {}
        seen: Set[str] = set()
        for row in rows:
            seen.add(row.device_id)
            for _seq, name in index.match(row, test, admit=admit):
                matched.setdefault(name, []).append(row)

        # Queries to visit: everyone matched this poll, plus everyone
        # holding edge memory that a scanned non-match must clear.
        active = {query.name: query
                  for query in self.catalog.held_queries(table)}
        for name in matched:
            active[name] = queries[name]
        ordered = sorted(active.values(), key=lambda query: query.seq)

        emitted = 0
        for query in ordered:
            if not query.enabled:
                continue
            emitted += self._emit_matched(
                query, matched.get(query.name, []), seen)
        return emitted

    def _emit_matched(self, query: RegisteredQuery,
                      matched_rows: List[DeviceTuple],
                      seen: Set[str]) -> int:
        """Replay one query's matches in row order; prune stale edges."""
        plan = query.plan
        emitted = 0
        context = EvaluationContext(tuples={}, functions=self.functions)
        matched_ids: Set[str] = set()
        for row in matched_rows:
            matched_ids.add(row.device_id)
            previously = self.catalog.edge_state(query.name, row.device_id)
            self.catalog.set_edge(query, row.device_id, True)
            if previously:
                continue  # still the same event, no re-trigger
            query.events_detected += 1
            self._events_detected[query.name].inc()
            self.dispatcher.obs.tracer.record(
                self.env.now, "event_detected", query=query.name,
                sensor=row.device_id)
            context.tuples[plan.event_alias] = row
            if self._emit_request(query, row, context):
                emitted += 1
        self.catalog.prune_edges(query, seen, matched_ids)
        return emitted

    # ------------------------------------------------------------------
    # Request emission
    # ------------------------------------------------------------------
    def _emit_request(self, query: RegisteredQuery, event_row: DeviceTuple,
                      context: EvaluationContext) -> bool:
        plan = query.plan
        arguments = {
            name: evaluate(expression, context)
            for name, expression in plan.argument_expressions.items()
        }
        candidates = self._candidates(query, context)
        if not candidates:
            query.uncovered_events += 1
            self._uncovered_events[plan.query_name].inc()
            return False
        operator = self.dispatcher.operator_for(plan.action)
        self.dispatcher.obs.tracer.record(
            self.env.now, "request_emitted", query=plan.query_name,
            action=plan.action.name, candidates=len(candidates))
        deadline = (None if query.deadline_seconds is None
                    else self.env.now + query.deadline_seconds)
        # select_all fans out: one single-candidate request per device,
        # so the action runs on every candidate (extension semantics).
        candidate_sets = ([(device_id,) for device_id in candidates]
                          if plan.action.select_all else [candidates])
        emitted_any = False
        for request_candidates in candidate_sets:
            request = ActionRequest(
                action_name=plan.action.name,
                arguments=dict(arguments),
                query_id=plan.query_name,
                created_at=self.env.now,
                candidates=request_candidates,
                priority=query.priority,
                deadline=deadline,
            )
            if self.dispatcher.submit(operator, request):
                emitted_any = True
                query.requests_emitted += 1
                self._requests_emitted[plan.query_name].inc()
            else:
                query.requests_rejected += 1
        return emitted_any

    def _candidates(self, query: RegisteredQuery,
                    event_context: EvaluationContext) -> Tuple[str, ...]:
        """Device IDs satisfying the candidate predicate for this event.

        Membership, not liveness, is checked here: devices "may join,
        move around, or leave the network dynamically in a way
        unpredictable to the system" (Section 4), so unavailability is
        discovered by the dispatcher's probe, not assumed here.

        A predicate over static state only (``query.candidate_event_refs``
        is set) is evaluated once per distinct event-side input and
        served from the table's cache until the static epoch moves; a
        repeated event from one mote then costs one dict lookup instead
        of one interpreted predicate per member.
        """
        plan = query.plan
        epoch = static_epoch()
        table = self._candidate_sets.get(plan.device_table)
        if table is None or table.epoch != epoch:
            devices = self.comm.registry.of_type(plan.device_table)
            table = self._candidate_sets[plan.device_table] = _CandidateSets(
                epoch, devices,
                [device.static_attributes() for device in devices])
        predicate = plan.candidate_predicate
        if predicate is None:
            return table.intern(tuple(
                device.device_id for device in table.devices))
        if not query.candidate_analysed:
            query.candidate_event_refs = self._event_refs(plan, predicate)
            query.candidate_analysed = True
        key: Optional[_CandidateKey] = None
        if query.candidate_event_refs is not None:
            key = (plan.device_alias, predicate,
                   tuple(evaluate(ref, event_context)
                         for ref in query.candidate_event_refs))
            cached = table.sets.get(key)
            if cached is not None:
                return cached
        now = self.env.now
        candidates = table.intern(tuple(
            device.device_id
            for device, row in zip(table.devices, table.static)
            if evaluate(predicate, event_context.bind(
                plan.device_alias,
                DeviceTuple(device_type=device.device_type,
                            device_id=device.device_id,
                            values=row, acquired_at=now)))))
        if key is not None:
            if len(table.sets) >= _CANDIDATE_SETS_LIMIT:
                table.sets.clear()  # e.g. event devices that keep moving
            table.sets[key] = candidates
        return candidates
