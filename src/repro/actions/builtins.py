"""The system built-in action library.

Four built-ins cover the paper's examples: ``photo()`` on cameras
(Figure 1), ``sendphoto()`` on phones (the Section 2.2 CREATE ACTION
example, provided here as a built-in so the quickstart works out of the
box), and ``beep()``/``blink()`` on sensor motes (the atomic-operation
examples of Section 3.1).

Each built-in bundles implementation + action profile + quantity
resolver. The profiles are written against the default cost tables of
:mod:`repro.profiles.defaults`, so estimated and simulated costs agree
— mirroring the paper's finding that its cost model was "reasonably
accurate" against the real devices.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Mapping, Sequence, Tuple

import numpy

from repro.errors import QueryError
from repro.devices.base import Device, static_epoch
from repro.devices.camera import (
    _AIM_MEMO_LIMIT,
    HeadPosition,
    PanTiltZoomCamera,
)
from repro.cost.model import CostModel
from repro.actions.action import ActionDefinition, ActionParameter
from repro.actions.registry import ActionRegistry
from repro.profiles.action_profile import ActionProfile, OperationRef, par, seq

#: Default attachment size for sendphoto() MMS transfers, in kilobytes
#: (a medium AXIS 2130 JPEG).
DEFAULT_PHOTO_KB = 120.0


# ----------------------------------------------------------------------
# photo(target, directory [, size]) on cameras
# ----------------------------------------------------------------------

def _photo_impl(device: Device, args: Mapping[str, Any]
                ) -> Generator[Any, Any, Any]:
    if not isinstance(device, PanTiltZoomCamera):
        raise QueryError("photo() requires a PTZ camera device")
    size = args.get("size", "medium")
    return (yield from device.take_photo(args["target"], args["directory"],
                                         size))


def photo_profile() -> ActionProfile:
    """photo(): connect, move all head axes in parallel, capture, store."""
    return ActionProfile(
        action_name="photo",
        device_type="camera",
        composition=seq(
            OperationRef("connect"),
            par(OperationRef("pan", quantity="pan_degrees"),
                OperationRef("tilt", quantity="tilt_degrees"),
                OperationRef("zoom", quantity="zoom_units")),
            OperationRef("capture_medium"),
            OperationRef("store"),
        ),
        status_fields=["pan", "tilt", "zoom"],
        description="aim the head at a location and take a medium photo",
    )


def photo_resolver(
    device: Device, status: Mapping[str, float], args: Mapping[str, Any]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Head-movement quantities from the device's (projected) status.

    This encodes the paper's key cost observation: "the starting head
    position of the camera affects the execution time (cost) of the
    action ... the execution of a photo() action moves the head of the
    camera to a new position, which in turn affects the cost of the
    subsequent photo() action."
    """
    if not isinstance(device, PanTiltZoomCamera):
        raise QueryError("photo() cost estimation requires a PTZ camera")
    current = HeadPosition(pan=status["pan"], tilt=status["tilt"],
                           zoom=status["zoom"])
    aimed = device.aim_memoized(args["target"])
    quantities = {
        "pan_degrees": abs(aimed.pan - current.pan),
        "tilt_degrees": abs(aimed.tilt - current.tilt),
        "zoom_units": abs(aimed.zoom - current.zoom),
    }
    post_status = {"pan": aimed.pan, "tilt": aimed.tilt, "zoom": aimed.zoom}
    return quantities, post_status


class PhotoBlockResolver:
    """Vectorized ``photo()`` quantity resolution (cost-model block API).

    ``prepare`` resolves aimed head poses with the same scalar trig the
    per-call resolver uses (numpy's ``arctan2``/``hypot`` can differ
    from :mod:`math` in the last ulp, which would break byte-identical
    schedules), once per target and static epoch: the resolver keeps,
    per target ``(x, y)``, a (3 x cameras) float64 *aim column* of the
    pan, tilt and zoom ``aim_memoized`` gives every camera it has
    indexed. A batch's (cameras x targets) blocks are then one gather
    from its targets' columns. ``resolve`` is pure element-wise float64
    arithmetic against each camera's status column, bit-equal to
    :func:`photo_resolver` per element.
    """

    def __init__(self) -> None:
        #: The static epoch the index and the aim columns hold for.
        self._epoch = -1
        #: Camera -> its position along every aim column.
        self._index: Dict[Device, int] = {}
        self._cameras: List[PanTiltZoomCamera] = []
        #: Target (x, y) -> aim column over the first cameras indexed.
        self._aims: Dict[Tuple[float, float], Any] = {}

    def prepare(self, devices: Sequence[Device],
                args_list: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
        epoch = static_epoch()
        if epoch != self._epoch:
            self._epoch = epoch
            self._index = {}
            self._cameras = []
            self._aims = {}
        index = self._index
        rows = []
        for device in devices:
            row = index.get(device)
            if row is None:
                if not isinstance(device, PanTiltZoomCamera):
                    raise QueryError(
                        "photo() cost estimation requires a PTZ camera")
                row = index[device] = len(self._cameras)
                self._cameras.append(device)
            rows.append(row)
        slots: Dict[Tuple[float, float], int] = {}
        columns = []
        picks = []
        for args in args_list:
            target = args["target"]
            key = (target.x, target.y)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(columns)
                columns.append(self._aim_column(key, target))
            picks.append(slot)
        aims = numpy.empty((3, len(self._cameras), len(columns)),
                           dtype=numpy.float64)
        for slot, column in enumerate(columns):
            aims[:, :, slot] = column
        aims = aims[:, numpy.array(rows, dtype=numpy.intp)[:, None],
                    numpy.array(picks, dtype=numpy.intp)]
        return {"pan": aims[0], "tilt": aims[1], "zoom": aims[2]}

    def _aim_column(self, key: Tuple[float, float], target: Any) -> Any:
        """The target's aim column over every indexed camera, extended
        by one scalar ``aim_memoized`` per camera indexed since."""
        column = self._aims.get(key)
        done = 0 if column is None else column.shape[1]
        if done < len(self._cameras):
            poses = [camera.aim_memoized(target)
                     for camera in self._cameras[done:]]
            added = numpy.array([[pose.pan for pose in poses],
                                 [pose.tilt for pose in poses],
                                 [pose.zoom for pose in poses]],
                                dtype=numpy.float64)
            if column is not None:
                added = numpy.concatenate((column, added), axis=1)
            elif len(self._aims) >= _AIM_MEMO_LIMIT:
                self._aims.clear()
            column = self._aims[key] = added
        return column

    def resolve(self, prepared: Mapping[str, Any],
                status: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "pan_degrees": numpy.abs(prepared["pan"] - status["pan"]),
            "tilt_degrees": numpy.abs(prepared["tilt"] - status["tilt"]),
            "zoom_units": numpy.abs(prepared["zoom"] - status["zoom"]),
        }

    def post_status(self, prepared: Mapping[str, Any], row: int,
                    index: int) -> Dict[str, float]:
        return {
            "pan": float(prepared["pan"][row, index]),
            "tilt": float(prepared["tilt"][row, index]),
            "zoom": float(prepared["zoom"][row, index]),
        }


# ----------------------------------------------------------------------
# sendphoto(phone_no, photo_pathname [, size_kb]) on phones
# ----------------------------------------------------------------------

def _sendphoto_impl(device: Device, args: Mapping[str, Any]
                    ) -> Generator[Any, Any, Any]:
    size_kb = args.get("size_kb", DEFAULT_PHOTO_KB)
    yield from device.execute("connect")
    outcome = yield from device.execute(
        "receive_mms",
        sender="aorta",
        body=f"photo for {args['phone_no']}",
        attachment=args["photo_pathname"],
        size_kb=size_kb,
    )
    return outcome.detail


def sendphoto_profile() -> ActionProfile:
    """sendphoto(): page the phone, then push the MMS payload."""
    return ActionProfile(
        action_name="sendphoto",
        device_type="phone",
        composition=seq(
            OperationRef("connect"),
            OperationRef("receive_mms", quantity="mms_kilobytes"),
        ),
        status_fields=["in_coverage"],
        description="send a photo to a phone with MMS support",
    )


def sendphoto_resolver(
    device: Device, status: Mapping[str, float], args: Mapping[str, Any]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    quantities = {"mms_kilobytes": float(args.get("size_kb",
                                                  DEFAULT_PHOTO_KB))}
    return quantities, dict(status)


# ----------------------------------------------------------------------
# beep() / blink() on sensor motes
# ----------------------------------------------------------------------

def _mote_op_impl(operation: str):
    def impl(device: Device, args: Mapping[str, Any]
             ) -> Generator[Any, Any, Any]:
        yield from device.execute("connect")
        outcome = yield from device.execute(operation)
        return outcome.detail
    return impl


def _mote_profile(action_name: str, operation: str) -> ActionProfile:
    return ActionProfile(
        action_name=action_name,
        device_type="sensor",
        composition=seq(
            OperationRef("connect", quantity="hops"),
            OperationRef(operation),
        ),
        status_fields=["hop_depth", "battery"],
        description=f"{operation} once on a mote",
    )


def _mote_resolver(
    device: Device, status: Mapping[str, float], args: Mapping[str, Any]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Connecting costs time per hop (Section 2.3's sensor example)."""
    return {"hops": float(status.get("hop_depth", 1.0))}, dict(status)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def sendphoto_definition() -> ActionDefinition:
    """The reference *user-defined* action of Section 2.2.

    ``sendphoto()`` is the paper's CREATE ACTION example, so it is not
    part of the built-in library; this ready-made definition (and the
    exported ``sendphoto_profile``/``sendphoto_resolver``/impl pieces)
    let applications register it either directly or through the full
    ``install_action_code`` + ``CREATE ACTION`` flow.
    """
    return ActionDefinition(
        name="sendphoto",
        device_type="phone",
        parameters=(ActionParameter("phone_no", "String",
                                    device_attribute="number"),
                    ActionParameter("photo_pathname", "String")),
        implementation=_sendphoto_impl,
        profile=sendphoto_profile(),
        resolver=sendphoto_resolver,
        library_path="lib/users/sendphoto.dll",
        profile_path="profiles/users/sendphoto.xml",
    )


def builtin_definitions() -> list[ActionDefinition]:
    """Fresh definitions of all system built-in actions."""
    return [
        ActionDefinition(
            name="photo",
            device_type="camera",
            parameters=(ActionParameter("camera_ip", "String",
                                        device_attribute="ip"),
                        ActionParameter("target", "Location"),
                        ActionParameter("directory", "String")),
            implementation=_photo_impl,
            profile=photo_profile(),
            resolver=photo_resolver,
            builtin=True,
            block_resolver=PhotoBlockResolver(),
        ),
        ActionDefinition(
            name="beep",
            device_type="sensor",
            parameters=(ActionParameter("sensor_id", "String",
                                        device_attribute="id"),),
            implementation=_mote_op_impl("beep"),
            profile=_mote_profile("beep", "beep"),
            resolver=_mote_resolver,
            builtin=True,
        ),
        ActionDefinition(
            name="blink",
            device_type="sensor",
            parameters=(ActionParameter("sensor_id", "String",
                                        device_attribute="id"),),
            implementation=_mote_op_impl("blink"),
            profile=_mote_profile("blink", "blink"),
            resolver=_mote_resolver,
            builtin=True,
        ),
    ]


def install_builtin_actions(
    registry: ActionRegistry, cost_model: CostModel
) -> None:
    """Register the built-in library and its profiles.

    The cost model must already know the relevant device-type cost
    tables (see :func:`repro.profiles.defaults.register_builtin_types`).
    """
    for definition in builtin_definitions():
        registry.register(definition)
        cost_model.register_action(definition.profile, definition.resolver,
                                   block_resolver=definition.block_resolver)
