"""Wire messages exchanged between the engine and devices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple

from repro.errors import CommunicationError

#: Message kinds understood by every device endpoint. A
#: ``read_attributes`` payload is ``{"names": (...)}``: the device reads
#: every named sensory attribute at one instant and answers with a
#: name -> value dict in one round trip.
MESSAGE_KINDS = ("ping", "read_attributes", "status")


@dataclass(frozen=True)
class Message:
    """A request from the engine to a device."""

    kind: str
    device_id: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise CommunicationError(
                f"unknown message kind {self.kind!r}; "
                f"expected one of {MESSAGE_KINDS}"
            )


class Response(NamedTuple):
    """A device's answer to a :class:`Message`: one per round trip, so
    a tuple built positionally."""

    device_id: str
    ok: bool
    value: Any = None
    error: str = ""
    round_trip_seconds: float = 0.0
