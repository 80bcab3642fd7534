"""Synthetic action workloads for the scheduling study (Section 6.3).

The paper drove its scheduling experiments through the calibrated
camera simulator: requests are ``photo()`` executions whose cost is the
camera's fixed photo time plus the head movement from the camera's
current pose — "randomly selected from the interval [0.36, 5.36], which
is the range of the execution time (in seconds) of a photo() action on
an AXIS 2130 camera".

Two workload families:

* **uniform** — every request may run on every camera (Figure 4);
* **skewed** — half of the requests run anywhere, the other half only
  on a random subset of size ``skewness * m`` (Figure 6): "We define
  skewness to be the size of the subset divided by the total number of
  cameras."
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy

from repro.errors import SchedulingError
from repro.devices.camera import CALIBRATION, HeadPosition
from repro.scheduling.problem import (
    Problem,
    SchedRequest,
    SchedulingCostModel,
)

class _CameraColumnKernel:
    """Vectorized camera-cost matrices and columns (see
    ``scheduling/vector_cost``).

    Packs every request's target pose into float64 arrays once; a cost
    is then ``fixed + max(|Δpan|/v_pan, |Δtilt|/v_tilt, |Δzoom|/v_zoom)``
    evaluated element-wise in the same fold order as the scalar
    :meth:`HeadPosition.movement_seconds`, so each element is bit-equal
    to the scalar estimate. A matrix broadcasts each device's head pose
    as a column against the targets' row.
    """

    def __init__(self, problem: Problem) -> None:
        self._requests = problem.requests
        self._fixed = CALIBRATION.fixed_photo_seconds()
        self._pan_speed = CALIBRATION.pan_speed
        self._tilt_speed = CALIBRATION.tilt_speed
        self._zoom_speed = CALIBRATION.zoom_speed
        self._pan = numpy.array([r.payload.pan for r in problem.requests],
                                dtype=numpy.float64)
        self._tilt = numpy.array([r.payload.tilt for r in problem.requests],
                                 dtype=numpy.float64)
        self._zoom = numpy.array([r.payload.zoom for r in problem.requests],
                                 dtype=numpy.float64)

    def _seconds(self, pan: Any, tilt: Any, zoom: Any,
                 head_pan: Any, head_tilt: Any, head_zoom: Any) -> Any:
        movement = numpy.maximum(
            numpy.maximum(numpy.abs(pan - head_pan) / self._pan_speed,
                          numpy.abs(tilt - head_tilt) / self._tilt_speed),
            numpy.abs(zoom - head_zoom) / self._zoom_speed)
        return self._fixed + movement

    def matrix(self, device_ids: Sequence[str],
               statuses: Mapping[str, HeadPosition]) -> Any:
        heads = [statuses[device_id] for device_id in device_ids]
        return self._seconds(
            self._pan, self._tilt, self._zoom,
            numpy.array([head.pan for head in heads])[:, None],
            numpy.array([head.tilt for head in heads])[:, None],
            numpy.array([head.zoom for head in heads])[:, None])

    def column(self, device_id: str, status: HeadPosition,
               indexes: Optional[Any] = None) -> Any:
        pan, tilt, zoom = self._pan, self._tilt, self._zoom
        if indexes is not None:
            pan, tilt, zoom = pan[indexes], tilt[indexes], zoom[indexes]
        return self._seconds(pan, tilt, zoom,
                             status.pan, status.tilt, status.zoom)

    def post_status(self, index: int, device_id: str) -> HeadPosition:
        return self._requests[index].payload


class CameraStatusCostModel(SchedulingCostModel):
    """Sequence-dependent photo costs on a fleet of simulated cameras.

    Status is a :class:`HeadPosition`; a request's payload is the target
    head position. Cost = fixed photo time + slowest-axis movement time;
    post-status = the target pose (servicing a photo leaves the head
    aimed at its target — the paper's status-change effect).
    """

    def __init__(
        self,
        initial_heads: Mapping[str, HeadPosition],
        *,
        estimate_noise: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        self._initial_heads = dict(initial_heads)
        if estimate_noise < 0:
            raise SchedulingError("estimate_noise must be non-negative")
        #: Relative noise applied to *estimates* only; actual costs stay
        #: exact. Used by the cost-model-accuracy ablation.
        self.estimate_noise = estimate_noise
        self._noise_rng = random.Random(noise_seed)

    def initial_status(self, device_id: str) -> HeadPosition:
        try:
            return self._initial_heads[device_id]
        except KeyError:
            raise SchedulingError(
                f"no initial head pose for device {device_id!r}"
            ) from None

    def _true_cost(
        self, request: SchedRequest, status: HeadPosition
    ) -> Tuple[float, HeadPosition]:
        target: HeadPosition = request.payload
        movement = status.movement_seconds(target, CALIBRATION)
        return CALIBRATION.fixed_photo_seconds() + movement, target

    def estimate(
        self, request: SchedRequest, device_id: str, status: HeadPosition
    ) -> Tuple[float, HeadPosition]:
        seconds, post = self._true_cost(request, status)
        if self.estimate_noise:
            seconds *= 1.0 + self._noise_rng.uniform(
                -self.estimate_noise, self.estimate_noise)
        return seconds, post

    def actual(
        self, request: SchedRequest, device_id: str, status: HeadPosition
    ) -> Tuple[float, HeadPosition]:
        return self._true_cost(request, status)

    def make_column_kernel(self, problem: Problem
                           ) -> Optional[_CameraColumnKernel]:
        """Vectorized column oracle; ``None`` keeps the scalar path.

        Declined for noisy estimators (each scalar call re-draws noise,
        which a batch evaluation cannot reproduce).
        """
        if self.estimate_noise:
            return None
        return _CameraColumnKernel(problem)


def _random_head(rng: random.Random) -> HeadPosition:
    return HeadPosition(
        pan=rng.uniform(CALIBRATION.pan_min, CALIBRATION.pan_max),
        tilt=rng.uniform(CALIBRATION.tilt_min, CALIBRATION.tilt_max),
        zoom=rng.uniform(CALIBRATION.zoom_min, CALIBRATION.zoom_max),
    )


def _camera_ids(n_devices: int) -> Tuple[str, ...]:
    return tuple(f"cam{i + 1}" for i in range(n_devices))


def uniform_camera_workload(
    n_requests: int,
    n_devices: int,
    seed: int = 0,
    *,
    estimate_noise: float = 0.0,
) -> Problem:
    """A Figure-4-style uniform workload: all cameras candidates."""
    if n_requests < 1 or n_devices < 1:
        raise SchedulingError("need at least one request and one device")
    rng = random.Random(seed)
    device_ids = _camera_ids(n_devices)
    initial_heads = {device_id: _random_head(rng)
                     for device_id in device_ids}
    requests = tuple(
        SchedRequest(
            request_id=f"req{i + 1}",
            candidates=device_ids,
            payload=_random_head(rng),
        )
        for i in range(n_requests)
    )
    return Problem(
        requests=requests,
        device_ids=device_ids,
        cost_model=CameraStatusCostModel(
            initial_heads, estimate_noise=estimate_noise, noise_seed=seed),
        label=f"uniform n={n_requests} m={n_devices} seed={seed}",
    )


def skewed_camera_workload(
    n_requests: int,
    n_devices: int,
    skewness: float,
    seed: int = 0,
) -> Problem:
    """A Figure-6-style skewed workload.

    Half of the requests keep all devices as candidates; each request of
    the other half is restricted to a random subset of size
    ``round(skewness * n_devices)`` (at least 1).
    """
    if not 0 < skewness <= 1:
        raise SchedulingError(f"skewness must be in (0, 1], got {skewness}")
    rng = random.Random(seed)
    device_ids = _camera_ids(n_devices)
    initial_heads = {device_id: _random_head(rng)
                     for device_id in device_ids}
    subset_size = max(1, round(skewness * n_devices))
    requests = []
    for i in range(n_requests):
        if i < n_requests // 2:
            candidates = device_ids
        else:
            candidates = tuple(rng.sample(device_ids, subset_size))
        requests.append(SchedRequest(
            request_id=f"req{i + 1}",
            candidates=candidates,
            payload=_random_head(rng),
        ))
    return Problem(
        requests=tuple(requests),
        device_ids=device_ids,
        cost_model=CameraStatusCostModel(initial_heads),
        label=(f"skewed n={n_requests} m={n_devices} "
               f"skew={skewness} seed={seed}"),
    )

