"""Simulated AXIS-2130-style pan/tilt/zoom network camera.

The paper built a "homegrown camera simulator ... tuned through
extensive tests on the real cameras, so that a photo() action executed
on a simulated camera had similar effects (e.g., time for head movement)
to that on a real camera" (Section 6.3). This module is that simulator.

Calibration targets the paper's measured interval: a ``photo()``
execution costs **0.36 s** with the head already on target and up to
**5.36 s** for a full head traversal (Section 6.3's cost range
[0.36, 5.36]).

The model also reproduces the *unsynchronized* failure modes of
Section 6.2: when two photo actions overlap on one camera, the head is
redirected mid-move, so photos come out blurred, aimed at the wrong
position, or fail outright under connection overload.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import ActionFailedError, DeviceDownError, DeviceError
from repro.geometry import Point, ViewSector, angle_difference, normalize_angle
from repro.devices.base import Device, static_attribute, static_epoch
from repro.sim import Environment

#: Photo sizes supported by the capture operations.
PHOTO_SIZES = ("small", "medium", "large")

#: Distinct targets one camera's aim memo holds before starting over.
_AIM_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class CameraCalibration:
    """Timing/physics constants of the simulated camera.

    The default values are chosen so a medium ``photo()`` costs exactly
    the paper's [0.36, 5.36] s interval: 0.36 s of fixed work
    (connect + capture + store) plus 0–5 s of head movement.
    """

    #: Degrees per second of pan-axis head movement.
    pan_speed: float = 68.0
    #: Degrees per second of tilt-axis head movement.
    tilt_speed: float = 27.0
    #: Zoom factor change per second.
    zoom_speed: float = 3.0
    #: Pan limits in degrees (AXIS 2130: +/- 170).
    pan_min: float = -170.0
    pan_max: float = 170.0
    #: Tilt limits in degrees.
    tilt_min: float = -45.0
    tilt_max: float = 90.0
    #: Zoom factor limits.
    zoom_min: float = 1.0
    zoom_max: float = 10.0
    #: Seconds to open the HTTP control channel.
    connect_seconds: float = 0.06
    #: Seconds to expose/encode a photo, by size.
    capture_seconds: Dict[str, float] = field(default_factory=lambda: {
        "small": 0.12, "medium": 0.20, "large": 0.34,
    })
    #: Seconds to store the image file.
    store_seconds: float = 0.10
    #: Concurrent control connections before new connects are refused.
    max_concurrent_requests: int = 4

    def fixed_photo_seconds(self, size: str = "medium") -> float:
        """Cost of a photo with no head movement (paper: 0.36 s)."""
        return self.connect_seconds + self.capture_seconds[size] + self.store_seconds


@dataclass(frozen=True)
class HeadPosition:
    """A camera head pose: pan and tilt in degrees, zoom as a factor."""

    pan: float = 0.0
    tilt: float = 0.0
    zoom: float = 1.0

    def movement_seconds(self, target: "HeadPosition",
                         calibration: CameraCalibration) -> float:
        """Time to move to ``target``: axes move in parallel, so the
        slowest axis dominates (this is what makes the photo cost
        sequence-dependent)."""
        return max(
            abs(target.pan - self.pan) / calibration.pan_speed,
            abs(target.tilt - self.tilt) / calibration.tilt_speed,
            abs(target.zoom - self.zoom) / calibration.zoom_speed,
        )

    def interpolate(self, target: "HeadPosition", fraction: float) -> "HeadPosition":
        """Head pose after ``fraction`` in [0, 1] of the move to target."""
        fraction = min(max(fraction, 0.0), 1.0)
        return HeadPosition(
            pan=self.pan + (target.pan - self.pan) * fraction,
            tilt=self.tilt + (target.tilt - self.tilt) * fraction,
            zoom=self.zoom + (target.zoom - self.zoom) * fraction,
        )


@dataclass
class Photo:
    """The product of one ``photo()`` action."""

    camera_id: str
    target: Point
    directory: str
    size: str
    taken_at: float
    #: Head pose at capture time.
    head: HeadPosition
    #: True when the head was still moving during exposure.
    blurred: bool = False
    #: Angular error (degrees) between intended and actual aim.
    aim_error_degrees: float = 0.0

    @property
    def ok(self) -> bool:
        """A photo is usable when sharp and aimed within one degree."""
        return not self.blurred and self.aim_error_degrees <= 1.0

    @property
    def pathname(self) -> str:
        """Simulated storage path of the image file."""
        stamp = f"{self.taken_at:.3f}".replace(".", "_")
        return f"{self.directory}/{self.camera_id}_{stamp}.jpg"


@dataclass
class _Motion:
    """Internal record of an in-flight head movement."""

    origin: HeadPosition
    target: HeadPosition
    started_at: float
    duration: float
    epoch: int

    def position_at(self, now: float) -> HeadPosition:
        if self.duration <= 0:
            return self.target
        fraction = (now - self.started_at) / self.duration
        return self.origin.interpolate(self.target, fraction)

    def moving_at(self, now: float) -> bool:
        return now < self.started_at + self.duration


class PanTiltZoomCamera(Device):
    """A remotely controllable PTZ network camera.

    The camera is mounted at ``location`` facing ``facing`` degrees with
    a pannable view sector; ``mount_height`` (metres) determines the
    tilt required to aim at floor-level targets.
    """

    device_type = "camera"
    view: ViewSector = static_attribute("view")
    mount_height: float = static_attribute("mount_height")
    calibration: CameraCalibration = static_attribute("calibration")
    ip_address: str = static_attribute("ip_address")

    def __init__(
        self,
        env: Environment,
        device_id: str,
        location: Point,
        *,
        ip_address: str = "",
        facing: float = 0.0,
        view_half_angle: float = 170.0,
        view_range: float = 50.0,
        mount_height: float = 3.0,
        calibration: Optional[CameraCalibration] = None,
        blur_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(env, device_id, location)
        # crc32, not hash(): a str hash is salted per interpreter, so
        # the default address would change from run to run.
        self.ip_address = ip_address \
            or f"10.0.0.{zlib.crc32(device_id.encode()) % 250 + 1}"
        self.calibration = calibration or CameraCalibration()
        self.mount_height = mount_height
        self.view = ViewSector(
            origin=location, center=normalize_angle(facing),
            half_angle=view_half_angle, max_range=view_range,
        )
        self._motion = _Motion(
            origin=HeadPosition(), target=HeadPosition(),
            started_at=env.now, duration=0.0, epoch=0,
        )
        self._active_connections = 0
        if not 0.0 <= blur_probability < 1.0:
            raise DeviceError(
                f"blur_probability must be in [0, 1), got {blur_probability}"
            )
        #: Hardware unreliability: a real camera "may ... produce
        #: blurred photos occasionally" (Section 4) even unhindered.
        self.blur_probability = blur_probability
        self._rng = rng or random.Random(0)
        #: Every photo ever taken, newest last (the simulated photo store).
        self.photo_log: List[Photo] = []
        #: Target (x, y) -> aimed pose, valid at ``_aim_epoch`` only.
        self._aim_memo: Dict[Tuple[float, float], HeadPosition] = {}
        self._aim_epoch = -1

    # ------------------------------------------------------------------
    # Geometry and aiming
    # ------------------------------------------------------------------
    def covers(self, target: Point) -> bool:
        """Whether ``target`` is inside this camera's view range
        (the ``coverage()`` built-in of the paper's Figure 1 query)."""
        return self.view.covers(target)

    def aim_for(self, target: Point) -> HeadPosition:
        """Head pose that points the lens at ``target``.

        Pan follows the bearing to the target; tilt looks down by the
        angle set by the mount height; zoom is auto-tuned from distance
        (the paper configured the real cameras the same way so photos of
        one location from either camera match in view size).
        """
        bearing = self.view.bearing_of(target)
        pan = self._clamp(bearing, self.calibration.pan_min, self.calibration.pan_max)
        distance = self.location.distance_to(target)
        tilt_down = -math.degrees(math.atan2(self.mount_height, max(distance, 0.1)))
        tilt = self._clamp(tilt_down, self.calibration.tilt_min,
                           self.calibration.tilt_max)
        zoom = self._clamp(1.0 + distance / 5.0, self.calibration.zoom_min,
                           self.calibration.zoom_max)
        return HeadPosition(pan=pan, tilt=tilt, zoom=zoom)

    def aim_memoized(self, target: Point) -> HeadPosition:
        """:meth:`aim_for`, computed once per target and static epoch.

        The aimed pose depends on the target and the mount (location,
        view, height, calibration) only, and the cost oracle asks for
        the same few targets on every batch. A moved static epoch (a
        re-mount anywhere) drops the memo; ``_AIM_MEMO_LIMIT`` bounds it
        under ever-new targets.
        """
        epoch = static_epoch()
        if epoch != self._aim_epoch:
            self._aim_epoch = epoch
            self._aim_memo = {}
        key = (target.x, target.y)
        aimed = self._aim_memo.get(key)
        if aimed is None:
            if len(self._aim_memo) >= _AIM_MEMO_LIMIT:
                self._aim_memo.clear()
            aimed = self._aim_memo[key] = self.aim_for(target)
        return aimed

    @staticmethod
    def _clamp(value: float, low: float, high: float) -> float:
        return min(max(value, low), high)

    # ------------------------------------------------------------------
    # Physical status (cost-model input)
    # ------------------------------------------------------------------
    def head_position(self) -> HeadPosition:
        """Current head pose, interpolated while a move is in flight."""
        return self._motion.position_at(self.env.now)

    @property
    def head_moving(self) -> bool:
        """Whether a head movement is in progress right now."""
        return self._motion.moving_at(self.env.now)

    def physical_status(self) -> Dict[str, float]:
        head = self.head_position()
        return {"pan": head.pan, "tilt": head.tilt, "zoom": head.zoom}

    def static_attributes(self) -> Dict[str, Any]:
        row = super().static_attributes()
        row["ip"] = self.ip_address
        return row

    def read_sensory(self, name: str) -> Any:
        head = self.head_position()
        readings = {"pan": head.pan, "tilt": head.tilt, "zoom": head.zoom,
                    "moving": self.head_moving}
        if name in readings:
            return readings[name]
        return super().read_sensory(name)

    # ------------------------------------------------------------------
    # Atomic operations
    # ------------------------------------------------------------------
    def operation_names(self) -> tuple[str, ...]:
        return ("connect", "move_head", "capture_small", "capture_medium",
                "capture_large", "store")

    def op_connect(self) -> Generator[Any, Any, None]:
        """Open a control connection; refused when overloaded.

        An overloaded real camera either delays heavily or drops the
        connection (Section 4); we refuse deterministically above the
        concurrency limit so the failure is observable and testable.
        """
        if self._active_connections >= self.calibration.max_concurrent_requests:
            raise ActionFailedError(
                f"camera {self.device_id}: connection refused "
                f"({self._active_connections} active)",
                reason="timeout",
            )
        self._active_connections += 1
        # Each concurrent client slows the control channel down.
        penalty = 1.0 + 0.5 * (self._active_connections - 1)
        yield self.env.timeout(self.service_seconds(
            self.calibration.connect_seconds * penalty))

    def release_connection(self) -> None:
        """Close one control connection opened by :meth:`op_connect`."""
        if self._active_connections <= 0:
            raise DeviceError(f"camera {self.device_id}: no connection to close")
        self._active_connections -= 1

    def op_move_head(self, target: HeadPosition) -> Generator[Any, Any, int]:
        """Slew the head to ``target``; returns the motion epoch.

        Starting a new move while one is in flight *redirects* the head
        from its interpolated position — exactly the unsynchronized
        interference of Section 6.2. The superseded move's epoch becomes
        stale, which its photo process detects at capture time.
        """
        now = self.env.now
        origin = self._motion.position_at(now)
        duration = self.service_seconds(
            origin.movement_seconds(target, self.calibration))
        self._motion = _Motion(
            origin=origin, target=target, started_at=now,
            duration=duration, epoch=self._motion.epoch + 1,
        )
        my_epoch = self._motion.epoch
        yield self.env.timeout(duration)
        return my_epoch

    def _capture(self, size: str) -> Generator[Any, Any, Photo]:
        if size not in PHOTO_SIZES:
            raise DeviceError(f"unknown photo size {size!r}")
        exposure = self.service_seconds(
            self.calibration.capture_seconds[size])
        moving_before = self.head_moving
        head_before = self.head_position()
        yield self.env.timeout(exposure)
        moving_after = self.head_moving
        # Exposure while the head moves smears the image; hardware also
        # smears a small fraction of otherwise-clean exposures.
        blurred = (moving_before or moving_after
                   or (self.blur_probability > 0
                       and self._rng.random() < self.blur_probability))
        return Photo(
            camera_id=self.device_id,
            target=Point(0.0, 0.0),  # caller fills in the intended target
            directory="",
            size=size,
            taken_at=self.env.now,
            head=head_before,
            blurred=blurred,
        )

    def op_capture_small(self) -> Generator[Any, Any, Photo]:
        return (yield from self._capture("small"))

    def op_capture_medium(self) -> Generator[Any, Any, Photo]:
        return (yield from self._capture("medium"))

    def op_capture_large(self) -> Generator[Any, Any, Photo]:
        return (yield from self._capture("large"))

    def op_store(self) -> Generator[Any, Any, None]:
        """Persist the last capture to storage."""
        yield self.env.timeout(self.service_seconds(
            self.calibration.store_seconds))

    # ------------------------------------------------------------------
    # The composite photo() behaviour (device side)
    # ------------------------------------------------------------------
    def take_photo(
        self, target: Point, directory: str, size: str = "medium"
    ) -> Generator[Any, Any, Photo]:
        """Full photo sequence: connect, aim, capture, store.

        This is the device-side behaviour the ``photo()`` action drives.
        Without engine-level locking, concurrent calls interleave and
        produce blurred / mis-aimed photos — run it through
        :mod:`repro.sync.locks` to get the paper's synchronized result.
        """
        if not self.online:
            # Transient: the camera may come back (outage end, repair).
            raise DeviceDownError(
                f"camera {self.device_id} is {self.state.value}"
            )
        if not self.covers(target):
            raise ActionFailedError(
                f"camera {self.device_id} does not cover {target}",
                reason="no_coverage",
            )
        started = self.env.now
        try:
            photo = yield from self._take_photo_connected(
                target, directory, size)
        finally:
            # The composite bypasses execute()'s bookkeeping; account
            # for it here so utilization reports stay truthful.
            self.operations_executed += 1
            self.busy_seconds += self.env.now - started
        return photo

    def _take_photo_connected(
        self, target: Point, directory: str, size: str
    ) -> Generator[Any, Any, Photo]:
        yield from self.op_connect()
        try:
            intended = self.aim_for(target)
            my_epoch = yield from self.op_move_head(intended)
            photo = yield from self._capture(size)
            actual = self.head_position()
            photo.target = target
            photo.directory = directory
            photo.aim_error_degrees = max(
                angle_difference(actual.pan, intended.pan),
                abs(actual.tilt - intended.tilt),
            )
            if self._motion.epoch != my_epoch:
                # Another request redirected the head under us.
                photo.blurred = True
            yield from self.op_store()
            self.photo_log.append(photo)
            return photo
        finally:
            self.release_connection()
