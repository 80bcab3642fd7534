"""Action profiles: declarative composition of atomic operations.

The paper's cost model estimates an action's cost from its *action
profile*, "which specifies the composition of an action in terms of the
sequential and/or parallel execution of a number of atomic operations"
(Section 2.3). A profile is a tree:

* :class:`OperationRef` — leaf; one atomic operation, optionally scaled
  by a named quantity resolved from the device's physical status and the
  action arguments (e.g. ``pan_degrees`` for a camera head move);
* :class:`Sequence` — children run one after another (costs add);
* :class:`Parallel` — children run concurrently (cost is the max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Set

from repro.errors import ProfileError
from repro.profiles.cost_table import CostTable


class CompositionNode:
    """Base class of action-composition tree nodes."""

    def estimate(self, costs: CostTable, quantities: Mapping[str, float]) -> float:
        """Estimated seconds given a cost table and resolved quantities."""
        raise NotImplementedError

    def operation_names(self) -> Set[str]:
        """All atomic operation names referenced in this subtree."""
        raise NotImplementedError

    def quantity_names(self) -> Set[str]:
        """All quantity names this subtree needs resolved."""
        raise NotImplementedError


@dataclass(frozen=True)
class OperationRef(CompositionNode):
    """Leaf node: one atomic operation, optionally quantity-scaled."""

    operation: str
    #: Name of the quantity (resolved at estimation time) the operation
    #: scales with; empty for fixed-cost operations.
    quantity: str = ""

    def estimate(self, costs: CostTable, quantities: Mapping[str, float]) -> float:
        if self.quantity:
            if self.quantity not in quantities:
                raise ProfileError(
                    f"quantity {self.quantity!r} for operation "
                    f"{self.operation!r} was not resolved"
                )
            return costs.estimate(self.operation, quantities[self.quantity])
        return costs.estimate(self.operation)

    def operation_names(self) -> Set[str]:
        return {self.operation}

    def quantity_names(self) -> Set[str]:
        return {self.quantity} if self.quantity else set()


@dataclass(frozen=True)
class _Composite(CompositionNode):
    """An inner node: one or more children, whose names it unites."""

    children: tuple[CompositionNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ProfileError(
                f"{type(self).__name__} node needs at least one child")

    def operation_names(self) -> Set[str]:
        return set().union(*(child.operation_names()
                             for child in self.children))

    def quantity_names(self) -> Set[str]:
        return set().union(*(child.quantity_names()
                             for child in self.children))


class Sequence(_Composite):
    """Children execute one after another; costs accumulate."""

    def estimate(self, costs: CostTable, quantities: Mapping[str, float]) -> float:
        # A plain left fold, not sum(): from Python 3.12 sum() compensates
        # float rounding, and the block path (cost/model.py) must add in
        # exactly this order to stay bit-equal.
        total = 0.0
        for child in self.children:
            total += child.estimate(costs, quantities)
        return total


class Parallel(_Composite):
    """Children execute concurrently; cost is the slowest child."""

    def estimate(self, costs: CostTable, quantities: Mapping[str, float]) -> float:
        return max(child.estimate(costs, quantities) for child in self.children)


def seq(*children: CompositionNode) -> Sequence:
    """Convenience constructor for a :class:`Sequence` node."""
    return Sequence(tuple(children))


def par(*children: CompositionNode) -> Parallel:
    """Convenience constructor for a :class:`Parallel` node."""
    return Parallel(tuple(children))


@dataclass
class ActionProfile:
    """The registered profile of one action on one device type."""

    action_name: str
    device_type: str
    composition: CompositionNode
    #: Fields of the device's physical status the action reads (for cost
    #: estimation) and may change (paper: "what kind of device physical
    #: status is concerned ... is specified in the action profile").
    status_fields: List[str] = field(default_factory=list)
    description: str = ""

    def validate_against(self, costs: CostTable) -> None:
        """Check that every referenced atomic operation exists."""
        if costs.device_type != self.device_type:
            raise ProfileError(
                f"profile {self.action_name!r} targets {self.device_type!r} "
                f"but cost table is for {costs.device_type!r}"
            )
        missing = self.composition.operation_names() - set(costs.operations)
        if missing:
            raise ProfileError(
                f"profile {self.action_name!r} references unknown atomic "
                f"operations: {sorted(missing)}"
            )

    def estimate(self, costs: CostTable, quantities: Mapping[str, float]) -> float:
        """Estimated cost in seconds for resolved ``quantities``."""
        return self.composition.estimate(costs, quantities)

    def required_quantities(self) -> Set[str]:
        """Quantity names a resolver must provide for estimation."""
        return self.composition.quantity_names()
