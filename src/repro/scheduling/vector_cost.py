"""Vectorized column cost kernels for the scheduling stack.

The schedulers' inner loop is per-(request, device) cost estimation:
SRFAE keys every eligible pair and re-keys a device's pairs after each
assignment; LERFA scores every candidate of every request; SRFE
re-scores a device's remaining queue per servicing step. Each of those
walks starts from the whole (devices x requests) cost **matrix** from
the devices' current statuses — SRFAE's initial keys, LERFA's score
table — and then asks "cost of *these requests* on *this device* from
*this status*", which is one **column** of it. A :class:`ColumnKernel`
answers each with one numpy expression instead of thousands of Python
calls: the matrix with every device's status broadcast along its row.

Fidelity contract (property-tested): a kernel's matrix and columns are
**bit-equal** to the scalar ``estimate`` walk, element by element, and
so a matrix row equals the device's column. Two design rules make that
possible:

* All *status-independent* work (trig aim resolution for the camera
  models) is done in a scalar ``prepare`` phase — on this platform
  ``numpy``'s SIMD ``arctan2``/``hypot`` differ from CPython's
  ``math`` equivalents in the last ulp, so the transcendental part
  must stay scalar to preserve byte-identical schedules. The engine's
  ``photo()`` resolver does it once per (camera, distinct target) and
  static epoch and keeps the poses as per-target columns, so a batch's
  prepared arrays are a gather of those exact floats.
* The *status-dependent* arithmetic (absolute axis deltas, the cost
  table's ``fixed + per_unit * quantity`` linear forms, sequence sums
  and parallel maxes) is pure float64 add/sub/mul/div/abs/max, for
  which numpy's element-wise semantics match scalar evaluation exactly
  when applied in the same order — on a 2-D block as on a 1-D column,
  since broadcasting a status column changes which operands meet, not
  the operation applied to them.

``numpy`` is a dependency of the package. :func:`build_kernel` is the
one place that chooses between a kernel and the scalar walk: a cost
model that provides no kernel, or declines the problem, keeps the
scalar walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

import numpy

from repro.scheduling.problem import Problem

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.devices.base import Device
    from repro.cost.model import CostModel


class ColumnKernel:
    """One problem's vectorized cost oracle: the matrix, or one column.

    Contract:

    * :meth:`matrix` returns the (devices x requests) float64 cost
      matrix, row ``k`` for ``device_ids[k]`` from
      ``statuses[device_ids[k]]`` — the fill a scheduler starts from.
    * :meth:`column` returns a float64 array of estimated seconds for
      the given request indexes (``None`` = all requests, in problem
      order) on one device from one status — the re-estimate after a
      device's status moved.
    * Both are bit-equal to calling the scalar ``estimate`` per element,
      so a matrix row equals the device's column.
    * :meth:`post_status` returns the post-servicing status of one
      (request, device) pair, equal to the scalar estimate's post
      status. Kernels exist only for models whose post status is
      *status-independent* (it depends on the request target and device
      geometry, not on where the head currently is) — which is what
      lets a column be evaluated without materializing n post objects.
    """

    def matrix(self, device_ids: Sequence[str],
               statuses: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def column(self, device_id: str, status: Any,
               indexes: Optional[Any] = None) -> Any:
        raise NotImplementedError

    def post_status(self, index: int, device_id: str) -> Any:
        raise NotImplementedError


class BlockModelKernel(ColumnKernel):
    """Kernel over the engine :class:`CostModel`'s block entry points.

    ``prepare_block`` runs once, at construction, over every device x
    request (a gather of scalar aims); ``estimate_block`` then evaluates
    the profile's composition tree once over the whole matrix, or over
    one device's row of it for a column.
    """

    def __init__(
        self,
        cost_model: "CostModel",
        action_name: str,
        devices: Sequence["Device"],
        args_list: Sequence[Any],
    ) -> None:
        self._cost_model = cost_model
        self._prepared = cost_model.prepare_block(action_name, devices,
                                                  args_list)
        #: device_id -> its row of the prepared block.
        self._rows = {device.device_id: row
                      for row, device in enumerate(devices)}

    def matrix(self, device_ids: Sequence[str],
               statuses: Mapping[str, Any]) -> Any:
        return self._cost_model.estimate_block(
            self._prepared, [statuses[device_id] for device_id in device_ids],
            rows=[self._rows[device_id] for device_id in device_ids]).seconds

    def column(self, device_id: str, status: Any,
               indexes: Optional[Any] = None) -> Any:
        row = self._rows[device_id]
        return self._cost_model.estimate_block(
            self._prepared, [status], indexes,
            rows=slice(row, row + 1)).seconds[0]

    def post_status(self, index: int, device_id: str) -> Any:
        return self._cost_model.block_post_status(
            self._prepared, self._rows[device_id], index)


def build_kernel(problem: Problem) -> Optional[ColumnKernel]:
    """The problem's column kernel, or ``None`` for the scalar path.

    The schedulers that have a kernel path call this on every problem,
    and this alone decides. It asks the problem's cost model for a
    kernel via its optional ``make_column_kernel(problem)`` hook. Any
    model without the hook — or that declines (noisy estimates,
    unsupported action) — keeps the byte-identical scalar walk.
    """
    maker = getattr(problem.cost_model, "make_column_kernel", None)
    if maker is None:
        return None
    return maker(problem)


def masked_argmin(costs: Any, mask: Any) -> Optional[int]:
    """Index of the smallest unmasked cost; ``None`` if all masked.

    First occurrence wins on ties — the same rule as a scalar
    first-strict-min scan in array order. ``costs`` may be a full row
    over every request with ``inf`` where the device is no candidate,
    and ``mask`` the batch-wide ``taken`` flags as they are: an ``inf``
    entry is never picked, and a row whose unmasked entries are all
    ``inf`` answers ``None``.
    """
    masked = numpy.where(mask, numpy.inf, costs)
    pos = int(masked.argmin())
    if masked[pos] == numpy.inf:
        return None
    return pos


__all__ = [
    "BlockModelKernel",
    "ColumnKernel",
    "build_kernel",
    "masked_argmin",
]
