"""Empirical calibration of atomic-operation costs.

"The estimated cost of an atomic operation is measured by our
homegrown programs using some cost metric; the cost metric we currently
use is the time required to finish the operation." (Section 3.1)

The calibrator is that homegrown program: it runs atomic operations on
a live (simulated) device, times them on the virtual clock, and fits
:class:`~repro.profiles.AtomicOperationCost` entries — a constant for
fixed-cost operations, and an ordinary-least-squares line
``fixed + per_unit * quantity`` for quantity-scaled ones. Calibrating a
camera this way recovers the shipped default cost table, which is the
reproduction's analogue of the paper validating its tables against real
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Sequence, Tuple

from repro.errors import ProfileError
from repro.devices.camera import HeadPosition, PanTiltZoomCamera
from repro.profiles.cost_table import AtomicOperationCost, CostTable
from repro.sim import Environment, raise_first_error

#: A measurement routine: runs one trial at ``quantity`` and returns
#: nothing; the calibrator times it.
TrialRunner = Callable[[float], Generator[Any, Any, None]]


@dataclass(frozen=True)
class Measurement:
    """One timed trial of an atomic operation."""

    operation: str
    quantity: float
    seconds: float


def _fit_line(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Ordinary least squares ``y = intercept + slope * x``."""
    n = len(points)
    if n < 2:
        raise ProfileError("need at least two points to fit a line")
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    ss_xx = sum((x - mean_x) ** 2 for x, _ in points)
    if ss_xx == 0:
        raise ProfileError("cannot fit a slope to constant quantities")
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    return intercept, slope


class Calibrator:
    """Times atomic operations on a device and fits cost entries."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.measurements: List[Measurement] = []

    # ------------------------------------------------------------------
    # Raw measurement
    # ------------------------------------------------------------------
    def time_trial(
        self, operation: str, quantity: float, runner: TrialRunner
    ) -> Measurement:
        """Run one trial to completion and record its duration."""
        def trial() -> Generator[Any, Any, Measurement]:
            started = self.env.now
            yield from runner(quantity)
            return Measurement(operation=operation, quantity=quantity,
                               seconds=self.env.now - started)

        done = self.env.fan_out([trial()])
        self.env.run()
        (measurement,) = raise_first_error(done.value)
        self.measurements.append(measurement)
        return measurement

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit_fixed(self, operation: str,
                  runner: TrialRunner) -> AtomicOperationCost:
        """Calibrate a fixed-cost operation (mean of five trials)."""
        samples = [self.time_trial(operation, 0.0, runner).seconds
                   for _ in range(5)]
        return AtomicOperationCost(
            name=operation,
            fixed_seconds=sum(samples) / len(samples),
            description="calibrated (fixed)",
        )

    def fit_linear(self, operation: str, unit: str,
                   quantities: Sequence[float],
                   runner: TrialRunner) -> AtomicOperationCost:
        """Calibrate a quantity-scaled operation by linear regression."""
        points = [(q, self.time_trial(operation, q, runner).seconds)
                  for q in quantities]
        intercept, slope = _fit_line(points)
        if slope < 0:
            raise ProfileError(
                f"operation {operation!r} timed *faster* at larger "
                f"quantities; the trial runner is probably wrong"
            )
        return AtomicOperationCost(
            name=operation,
            fixed_seconds=max(intercept, 0.0),
            per_unit_seconds=slope,
            unit=unit,
            description="calibrated (linear fit)",
        )


def calibrate_camera(
    env: Environment, camera: PanTiltZoomCamera
) -> CostTable:
    """Measure a camera's atomic-operation costs from scratch.

    Produces a cost table equivalent to
    :func:`repro.profiles.defaults.camera_cost_table` without looking
    at the calibration constants — only at timed behaviour.
    """
    calibrator = Calibrator(env)

    def reset_head() -> None:
        camera._motion.origin = HeadPosition()
        camera._motion.target = HeadPosition()
        camera._motion.duration = 0.0

    def connect_trial(_quantity: float) -> Generator[Any, Any, None]:
        yield from camera.op_connect()
        camera.release_connection()

    def pan_trial(quantity: float) -> Generator[Any, Any, None]:
        reset_head()
        yield from camera.op_move_head(HeadPosition(pan=quantity))

    def tilt_trial(quantity: float) -> Generator[Any, Any, None]:
        reset_head()
        yield from camera.op_move_head(HeadPosition(tilt=quantity))

    def zoom_trial(quantity: float) -> Generator[Any, Any, None]:
        reset_head()
        yield from camera.op_move_head(HeadPosition(zoom=1.0 + quantity))

    def capture_trial(size: str) -> TrialRunner:
        def runner(_quantity: float) -> Generator[Any, Any, None]:
            reset_head()
            yield from camera._capture(size)
        return runner

    def store_trial(_quantity: float) -> Generator[Any, Any, None]:
        yield from camera.op_store()

    table = CostTable(camera.device_type)
    table.add(calibrator.fit_fixed("connect", connect_trial))
    table.add(calibrator.fit_linear("pan", "degrees",
                                    [10, 40, 80, 120, 160], pan_trial))
    table.add(calibrator.fit_linear("tilt", "degrees",
                                    [5, 15, 30, 60, 85], tilt_trial))
    table.add(calibrator.fit_linear("zoom", "factor",
                                    [0.5, 2, 4, 6, 8], zoom_trial))
    for size in ("small", "medium", "large"):
        table.add(calibrator.fit_fixed(f"capture_{size}",
                                       capture_trial(size)))
    table.add(calibrator.fit_fixed("store", store_trial))
    return table
