"""Cost estimation for actions on candidate devices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, Mapping, Optional, Protocol, Sequence, Tuple,
)

import numpy

from repro.errors import ProfileError, RegistrationError
from repro.devices.base import Device
from repro.profiles.action_profile import (
    ActionProfile,
    CompositionNode,
    OperationRef,
    Parallel,
    Sequence as SequenceNode,
)
from repro.profiles.cost_table import CostTable


#: A device physical-status snapshot, e.g. ``{"pan": 30.0, "tilt": -5.0}``.
Status = Mapping[str, float]


class BlockResolver(Protocol):
    """Vectorized counterpart of :class:`QuantityResolver`.

    Splits the resolver's work along the status dependency:

    * :meth:`prepare` runs once per batch over a sequence of same-type
      devices and the batch's action argument mappings, and returns
      named float64 arrays of shape ``(devices, requests)`` holding
      everything *status-independent* (for ``photo()``: the aimed head
      pose per device and target). This is where scalar trig lives, so
      the block path stays bit-equal to per-call estimation.
    * :meth:`resolve` turns (a slice of) those arrays plus a status into
      quantity arrays — pure element-wise float64 arithmetic only. Each
      status field is a ``(devices, 1)`` column, broadcast along the
      requests axis.
    * :meth:`post_status` recovers the scalar post-execution status of
      one prepared (device, request) entry. Block resolvers only exist
      for actions whose post status does not depend on the starting
      status.
    """

    def prepare(self, devices: Sequence[Device],
                args_list: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
        """Status-independent data: name -> ``(devices, requests)``."""
        ...

    def resolve(self, prepared: Mapping[str, Any],
                status: Mapping[str, Any]) -> Dict[str, Any]:
        """Quantity-name -> float64 array shaped like ``prepared``."""
        ...

    def post_status(self, prepared: Mapping[str, Any], row: int,
                    index: int) -> Dict[str, float]:
        """Post-execution status of request ``index`` on device ``row``."""
        ...


class QuantityResolver(Protocol):
    """Turns (device, status, action args) into profile quantities.

    A resolver knows the geometry/semantics of one action: for
    ``photo()`` it computes how many degrees of pan and tilt separate
    the device's current head pose from the pose that aims at the
    action's target. It returns the resolved quantities *and* the
    projected post-execution status — the input to the next estimate in
    a sequence (the paper's sequence-dependent action execution time).
    """

    def __call__(
        self, device: Device, status: Status, args: Mapping[str, Any]
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Return ``(quantities, post_status)``."""
        ...


@dataclass(frozen=True)
class CostEstimate:
    """One estimate: seconds of service time plus the projected status."""

    seconds: float
    post_status: Dict[str, float] = field(default_factory=dict)
    quantities: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PreparedBlock:
    """One batch prepared for block estimation: devices x requests.

    ``arrays`` is the block resolver's status-independent data, each a
    float64 array of ``shape`` = (devices, requests) whose row ``k``
    belongs to the k-th prepared device.
    """

    action_name: str
    device_type: str
    shape: Tuple[int, int]
    arrays: Dict[str, Any]


@dataclass(frozen=True)
class BlockEstimate:
    """A cost matrix: estimates of (device, request) pairs.

    ``seconds[k, i]`` is bit-equal to the scalar
    :meth:`CostModel.estimate` of the i-th request on the k-th device
    from that device's status; ``quantities`` holds the resolved
    quantity arrays of the same shape.
    """

    seconds: Any
    quantities: Dict[str, Any] = field(default_factory=dict)


class CostModel:
    """Estimates action costs from profiles, cost tables and status.

    ``cost_tables`` is the communication layer's per-type dict, read in
    place; what registers here is (action profile, resolver) pairs per
    action/device-type combination.
    """

    def __init__(self, cost_tables: Mapping[str, CostTable]) -> None:
        self._cost_tables = cost_tables
        self._profiles: Dict[Tuple[str, str], ActionProfile] = {}
        self._resolvers: Dict[Tuple[str, str], QuantityResolver] = {}
        self._block_resolvers: Dict[Tuple[str, str], BlockResolver] = {}
        #: The quantity names each profile needs, computed once: every
        #: estimate checks its resolver's output against them.
        self._required: Dict[Tuple[str, str], FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_action(
        self, profile: ActionProfile, resolver: QuantityResolver,
        block_resolver: Optional[BlockResolver] = None,
    ) -> None:
        """Register an action's profile and its quantity resolver.

        The profile is validated against the device type's cost table
        immediately, so a typo'd operation name fails at registration
        rather than mid-query. ``block_resolver`` optionally enables the
        vectorized :meth:`estimate_block` entry point for the action.
        """
        key = (profile.action_name, profile.device_type)
        if key in self._profiles:
            raise RegistrationError(
                f"action {profile.action_name!r} on {profile.device_type!r} "
                f"already registered"
            )
        table = self._require_table(profile.device_type)
        profile.validate_against(table)
        self._profiles[key] = profile
        self._resolvers[key] = resolver
        self._required[key] = frozenset(profile.required_quantities())
        if block_resolver is not None:
            self._block_resolvers[key] = block_resolver

    def profile(self, action_name: str, device_type: str) -> ActionProfile:
        """The registered profile, raising on unknown combinations."""
        try:
            return self._profiles[(action_name, device_type)]
        except KeyError:
            raise ProfileError(
                f"no profile registered for action {action_name!r} on "
                f"device type {device_type!r}"
            ) from None

    def _require_table(self, device_type: str) -> CostTable:
        try:
            return self._cost_tables[device_type]
        except KeyError:
            raise ProfileError(
                f"no cost table registered for device type {device_type!r}"
            ) from None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        action_name: str,
        device: Device,
        args: Mapping[str, Any],
        status: Optional[Status] = None,
    ) -> CostEstimate:
        """Estimate one action execution on one candidate device.

        ``status`` is the device's physical status to estimate *from* —
        pass a probe result for the current status, or a previous
        estimate's ``post_status`` to chain a sequence. ``None`` reads
        the device's live status (convenient in tests; the optimizer
        always passes probed status).
        """
        key = (action_name, device.device_type)
        profile = self.profile(action_name, device.device_type)
        table = self._require_table(device.device_type)
        resolver = self._resolvers[key]
        if status is None:
            status = device.physical_status()
        quantities, post_status = resolver(device, status, args)
        missing = self._required[key].difference(quantities)
        if missing:
            raise ProfileError(
                f"resolver for {action_name!r} on {device.device_type!r} "
                f"did not produce quantities: {sorted(missing)}"
            )
        seconds = profile.estimate(table, quantities)
        return CostEstimate(
            seconds=seconds,
            post_status=dict(post_status),
            quantities=dict(quantities),
        )

    def estimate_sequence(
        self,
        action_name: str,
        device: Device,
        args_sequence: list[Mapping[str, Any]],
    ) -> list[CostEstimate]:
        """Estimate a sequence of executions from the device's current
        status, chaining post-status.

        This is the primitive the schedulers build on: the cost of the
        k-th action depends on where the (k-1)-th left the device.
        """
        status = device.physical_status()
        estimates = []
        for args in args_sequence:
            estimate = self.estimate(action_name, device, args, status)
            estimates.append(estimate)
            status = estimate.post_status
        return estimates

    # ------------------------------------------------------------------
    # Block (vectorized) estimation
    # ------------------------------------------------------------------
    def supports_block(self, action_name: str, device_type: str) -> bool:
        """Whether a block resolver is registered for this combination."""
        return (action_name, device_type) in self._block_resolvers

    def _require_block(self, action_name: str,
                       device_type: str) -> BlockResolver:
        try:
            return self._block_resolvers[(action_name, device_type)]
        except KeyError:
            raise ProfileError(
                f"no block resolver registered for action {action_name!r} "
                f"on device type {device_type!r}"
            ) from None

    def prepare_block(
        self, action_name: str, devices: Sequence[Device],
        args_list: Sequence[Mapping[str, Any]],
    ) -> PreparedBlock:
        """Status-independent preparation of a batch on same-type devices.

        The result feeds any number of :meth:`estimate_block` /
        :meth:`block_post_status` calls for the same (action, devices,
        args batch): the whole matrix, or any device's row of it.
        """
        device_types = {device.device_type for device in devices}
        if len(device_types) != 1:
            raise ProfileError(
                f"block preparation needs devices of one type, got "
                f"{sorted(device_types)}"
            )
        (device_type,) = device_types
        resolver = self._require_block(action_name, device_type)
        shape = (len(devices), len(args_list))
        arrays = resolver.prepare(devices, args_list)
        for name, array in arrays.items():
            if array.shape != shape:
                raise ProfileError(
                    f"block resolver for {action_name!r} prepared {name!r} "
                    f"with shape {array.shape}, expected {shape}"
                )
        return PreparedBlock(action_name, device_type, shape, arrays)

    def estimate_block(
        self,
        prepared: PreparedBlock,
        statuses: Sequence[Status],
        indexes: Optional[Any] = None,
        rows: Optional[Any] = None,
    ) -> BlockEstimate:
        """Vectorized :meth:`estimate` over a prepared batch.

        ``rows`` picks prepared devices (any numpy index over the device
        axis; ``None`` = all, in prepare order) and ``statuses`` holds
        one status per picked device; ``indexes`` picks requests
        (``None`` = all). The profile's composition tree is evaluated
        once over the whole (devices x requests) block, with each
        device's status broadcast along its row: element ``[k, i]`` is
        bit-equal to the scalar estimate of the i-th picked request on
        the k-th picked device from ``statuses[k]``.
        """
        key = (prepared.action_name, prepared.device_type)
        profile = self.profile(*key)
        table = self._require_table(prepared.device_type)
        resolver = self._require_block(*key)
        arrays = prepared.arrays
        if rows is not None:
            arrays = {name: array[rows] for name, array in arrays.items()}
        if indexes is not None:
            arrays = {name: array[:, indexes]
                      for name, array in arrays.items()}
        status = {
            field: numpy.array([device_status[field]
                                for device_status in statuses],
                               dtype=numpy.float64)[:, None]
            for field in profile.status_fields}
        quantities = resolver.resolve(arrays, status)
        missing = self._required[key].difference(quantities)
        if missing:
            raise ProfileError(
                f"block resolver for {prepared.action_name!r} on "
                f"{prepared.device_type!r} did not produce quantities: "
                f"{sorted(missing)}"
            )
        for array in quantities.values():
            if array.size and float(array.min()) < 0:
                raise ProfileError(
                    f"action {prepared.action_name!r} block-estimated with "
                    f"a negative quantity"
                )
        seconds = _block_seconds(profile.composition, table, quantities)
        if not isinstance(seconds, numpy.ndarray):
            # A profile without quantities costs a constant; size it to
            # the picked block all the same.
            width = prepared.shape[1] if indexes is None else len(indexes)
            seconds = numpy.full((len(statuses), width), seconds,
                                 dtype=numpy.float64)
        return BlockEstimate(seconds=seconds, quantities=dict(quantities))

    def block_post_status(
        self, prepared: PreparedBlock, row: int, index: int
    ) -> Dict[str, float]:
        """Post-execution status of request ``index`` on device ``row``."""
        resolver = self._require_block(prepared.action_name,
                                       prepared.device_type)
        return resolver.post_status(prepared.arrays, row, index)


def _block_seconds(node: CompositionNode, table: CostTable,
                   quantities: Mapping[str, Any]) -> Any:
    """Element-wise composition-tree evaluation over quantity arrays.

    Mirrors the scalar walk operation for operation and in the same
    fold order, so each element of the result is bit-equal to
    ``node.estimate`` of the corresponding scalar quantities: sequences
    left-fold ``+``, parallels left-fold ``maximum``, and each leaf is
    the cost table's ``fixed + per_unit * quantity`` linear form.
    Fixed-cost subtrees evaluate to Python floats and broadcast.
    """
    if isinstance(node, OperationRef):
        operation = table.operation(node.operation)
        if node.quantity:
            if node.quantity not in quantities:
                raise ProfileError(
                    f"quantity {node.quantity!r} for operation "
                    f"{node.operation!r} was not resolved"
                )
            return (operation.fixed_seconds
                    + operation.per_unit_seconds * quantities[node.quantity])
        return operation.estimate()
    if isinstance(node, SequenceNode):
        total: Any = 0.0
        for child in node.children:
            total = total + _block_seconds(child, table, quantities)
        return total
    if isinstance(node, Parallel):
        maximum = numpy.maximum
        slowest: Any = None
        for child in node.children:
            value = _block_seconds(child, table, quantities)
            slowest = value if slowest is None else maximum(slowest, value)
        return slowest
    raise ProfileError(  # pragma: no cover - defensive
        f"unknown composition node type {type(node).__name__!r}")
