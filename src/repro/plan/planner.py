"""The planner: parsed statements to executable plans."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import PlanError
from repro.actions.action import ActionDefinition
from repro.actions.registry import ActionRegistry
from repro.comm.layer import CommunicationLayer
from repro.plan.operators import (
    FilterOp,
    JoinOp,
    Operator,
    ProjectOp,
    TableScanOp,
)
from repro.query.ast import (
    ColumnRef,
    Expression,
    FunctionCall,
    SelectQuery,
)
from repro.query.bands import conjoin, conjuncts_of
from repro.query.catalog import SchemaCatalog
from repro.query.functions import FunctionRegistry


@dataclass(slots=True)
class ContinuousPlan:
    """The executable form of an action-embedded continuous query.

    Structure of the paper's Figure 1 pattern: one *event table* whose
    scan drives event detection, one *device table* naming the action's
    candidate devices, a partitioned WHERE clause, and the embedded
    action with per-parameter argument expressions.
    """

    query_name: str
    action: ActionDefinition
    #: Alias and device type of the event-producing table (``s``/sensor).
    event_alias: str
    event_table: str
    #: Alias and device type of the candidate-device table (``c``/camera).
    device_alias: str
    device_table: str
    #: Conjuncts referencing only the event alias (``s.accel_x > 500``).
    event_predicate: Optional[Expression]
    #: Conjuncts referencing the device alias (``coverage(c.id, s.loc)``).
    candidate_predicate: Optional[Expression]
    #: Parameter name -> argument expression (device parameters omitted;
    #: the scheduler's choice fills those at execution time).
    argument_expressions: Dict[str, Expression] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable plan, in the spirit of EXPLAIN."""
        lines = [
            f"ContinuousQuery({self.query_name})",
            f"  EventScan({self.event_table} AS {self.event_alias})",
        ]
        if self.event_predicate is not None:
            lines.append(f"  EventFilter({self.event_predicate})")
        lines.append(
            f"  CandidateScan({self.device_table} AS {self.device_alias})")
        if self.candidate_predicate is not None:
            lines.append(f"  CandidateFilter({self.candidate_predicate})")
        lines.append(f"  SharedAction({self.action.name})")
        return "\n".join(lines)


@dataclass
class SnapshotPlan:
    """A one-shot SELECT over the virtual tables."""

    root: ProjectOp

    def execute(self):
        """Simulation generator yielding the projected result rows."""
        return self.root.result_rows()

    def describe(self) -> str:
        return self.root.explain()


class Planner:
    """Builds continuous and snapshot plans from validated ASTs."""

    def __init__(
        self,
        schema: SchemaCatalog,
        actions: ActionRegistry,
        functions: FunctionRegistry,
        comm: CommunicationLayer,
    ) -> None:
        self.schema = schema
        self.actions = actions
        self.functions = functions
        self.comm = comm

    # ------------------------------------------------------------------
    # Continuous (action-embedded) queries
    # ------------------------------------------------------------------
    def plan_continuous(self, query_name: str,
                        query: SelectQuery) -> ContinuousPlan:
        """Plan a CREATE AQ query of the paper's event->action pattern."""
        self.schema.validate_select(query)
        action_call = self._find_action_call(query)
        action = self.actions.get(action_call.name)

        if len(action_call.args) != len(action.parameters):
            raise PlanError(
                f"action {action.name!r} takes {len(action.parameters)} "
                f"argument(s), the query passes {len(action_call.args)}"
            )

        device_alias = self._resolve_device_alias(query, action, action_call)
        device_table = query.alias_of(device_alias).table

        event_tables = [t for t in query.tables if t.alias != device_alias]
        if len(event_tables) != 1:
            raise PlanError(
                f"an AQ needs exactly one event table besides the "
                f"{action.device_type!r} device table; FROM has "
                f"{[t.alias for t in query.tables]}"
            )
        event_alias = event_tables[0].alias
        event_table = event_tables[0].table

        event_conjuncts: List[Expression] = []
        candidate_conjuncts: List[Expression] = []
        for conjunct in conjuncts_of(query.where):
            qualifiers = conjunct.qualifiers()
            if device_alias in qualifiers:
                candidate_conjuncts.append(conjunct)
            else:
                event_conjuncts.append(conjunct)

        argument_expressions: Dict[str, Expression] = {}
        for parameter, arg in zip(action.parameters, action_call.args):
            if parameter.device_attribute:
                continue  # bound from the chosen device at execution
            foreign = arg.qualifiers() - {event_alias}
            if foreign:
                raise PlanError(
                    f"argument {parameter.name!r} of {action.name!r} "
                    f"references non-event aliases {sorted(foreign)}; only "
                    f"the event table and literals may parameterize an "
                    f"action"
                )
            argument_expressions[parameter.name] = arg

        return ContinuousPlan(
            query_name=query_name,
            action=action,
            event_alias=event_alias,
            event_table=event_table,
            device_alias=device_alias,
            device_table=device_table,
            event_predicate=conjoin(event_conjuncts),
            candidate_predicate=conjoin(candidate_conjuncts),
            argument_expressions=argument_expressions,
        )

    def _find_action_call(self, query: SelectQuery) -> FunctionCall:
        action_calls = [
            item for item in query.select_items
            if isinstance(item, FunctionCall) and item.name in self.actions
        ]
        if len(action_calls) != 1:
            raise PlanError(
                f"an AQ must SELECT exactly one embedded action; found "
                f"{len(action_calls)}"
            )
        if len(query.select_items) != 1:
            raise PlanError(
                "an AQ's SELECT list holds only the embedded action call"
            )
        return action_calls[0]

    def _resolve_device_alias(
        self, query: SelectQuery, action: ActionDefinition,
        call: FunctionCall,
    ) -> str:
        """Find the FROM alias the action's device parameters bind to."""
        device_aliases = set()
        for parameter, arg in zip(action.parameters, call.args):
            if not parameter.device_attribute:
                continue
            if not isinstance(arg, ColumnRef) or not arg.qualifier:
                raise PlanError(
                    f"argument {parameter.name!r} of {action.name!r} must "
                    f"be a qualified column of the device table "
                    f"(e.g. c.{parameter.device_attribute})"
                )
            device_aliases.add(arg.qualifier)
        if not device_aliases:
            # No device parameter: fall back to the unique FROM table of
            # the action's device type.
            matching = [
                t.alias for t in query.tables
                if self.schema.resolve_alias_type(query, t.alias)
                == action.device_type
            ]
            if len(matching) != 1:
                raise PlanError(
                    f"cannot identify the {action.device_type!r} device "
                    f"table for action {action.name!r}"
                )
            return matching[0]
        if len(device_aliases) > 1:
            raise PlanError(
                f"device parameters of {action.name!r} reference multiple "
                f"aliases: {sorted(device_aliases)}"
            )
        alias = device_aliases.pop()
        alias_type = self.schema.resolve_alias_type(query, alias)
        if alias_type != action.device_type:
            raise PlanError(
                f"action {action.name!r} operates {action.device_type!r} "
                f"but its device argument references {alias!r} of type "
                f"{alias_type!r}"
            )
        return alias

    # ------------------------------------------------------------------
    # Snapshot SELECTs
    # ------------------------------------------------------------------
    def plan_snapshot(self, query: SelectQuery) -> SnapshotPlan:
        """Plan a one-shot SELECT as scans + joins + filter + project."""
        self.schema.validate_select(query)
        for item in query.select_items:
            if isinstance(item, FunctionCall) and item.name in self.actions:
                raise PlanError(
                    f"embedded action {item.name!r} requires CREATE AQ; "
                    f"plain SELECT is a snapshot query"
                )
        root: Operator | None = None
        for table_ref in query.tables:
            scan: Operator = TableScanOp(
                table_ref.alias, self.comm.scan_operator(table_ref.table))
            root = scan if root is None else JoinOp(root, scan)
        assert root is not None  # grammar guarantees >= 1 table
        if query.where is not None:
            root = FilterOp(root, query.where, self.functions)
        project = ProjectOp(root, query.select_items, self.functions)
        return SnapshotPlan(root=project)
