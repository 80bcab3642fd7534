"""Simulated cell phone with SMS/MMS support.

Phones are the delivery endpoint of actions like the paper's
``sendphoto(phone_no, photo_pathname)`` example; they "may become
unreachable when [the] owner moves into an area that is out of the
coverage of the service provider" (Section 4), which the probing
mechanism must detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List

from repro.errors import CommunicationError, DeviceError
from repro.geometry import Point
from repro.devices.base import Device, static_attribute
from repro.sim import Environment

#: Seconds to deliver a plain SMS.
SMS_SECONDS = 0.8
#: Fixed MMS setup cost plus per-kilobyte transfer time.
MMS_FIXED_SECONDS = 1.5
MMS_PER_KB_SECONDS = 0.01


@dataclass(frozen=True)
class TextMessage:
    """One message in a phone's inbox."""

    kind: str  # "sms" | "mms"
    sender: str
    body: str
    attachment: str = ""
    received_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("sms", "mms"):
            raise DeviceError(f"unknown message kind {self.kind!r}")
        if self.kind == "mms" and not self.attachment:
            raise DeviceError("an MMS needs an attachment path")


class MobilePhone(Device):
    """An MMS-capable phone owned by, e.g., the off-duty lab manager."""

    device_type = "phone"
    number: str = static_attribute("number")
    mms_support: bool = static_attribute("mms_support")

    def __init__(
        self,
        env: Environment,
        device_id: str,
        location: Point,
        *,
        number: str,
    ) -> None:
        super().__init__(env, device_id, location)
        if not number:
            raise DeviceError("phone number must be non-empty")
        self.number = number
        #: Every phone takes MMS; the catalog column says so.
        self.mms_support = True
        self.in_coverage = True
        self.battery_percent = 100.0
        self.inbox: List[TextMessage] = []

    @property
    def reachable(self) -> bool:
        """A phone out of carrier coverage is online but unreachable."""
        return self.online and self.in_coverage

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def leave_coverage(self) -> None:
        """The owner walked out of the provider's coverage area."""
        self.in_coverage = False

    def enter_coverage(self) -> None:
        """The owner is reachable again."""
        self.in_coverage = True

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def static_attributes(self) -> Dict[str, Any]:
        row = super().static_attributes()
        row["number"] = self.number
        row["mms_support"] = self.mms_support
        return row

    def read_sensory(self, name: str) -> Any:
        readings = {"battery": self.battery_percent,
                    "in_coverage": self.in_coverage}
        if name in readings:
            return readings[name]
        return super().read_sensory(name)

    def physical_status(self) -> Dict[str, float]:
        return {"battery": self.battery_percent,
                "in_coverage": 1.0 if self.in_coverage else 0.0}

    # ------------------------------------------------------------------
    # Atomic operations
    # ------------------------------------------------------------------
    def operation_names(self) -> tuple[str, ...]:
        return ("connect", "receive_sms", "receive_mms")

    def _require_coverage(self) -> None:
        if not self.in_coverage:
            raise CommunicationError(
                f"phone {self.number} is out of coverage"
            )

    def op_connect(self) -> Generator[Any, Any, None]:
        """Page the phone through the carrier network."""
        self._require_coverage()
        yield self.env.timeout(self.service_seconds(0.3))
        self._require_coverage()

    def op_receive_sms(self, sender: str, body: str) -> Generator[Any, Any, TextMessage]:
        """Deliver a plain text message."""
        self._require_coverage()
        yield self.env.timeout(self.service_seconds(SMS_SECONDS))
        self._require_coverage()
        message = TextMessage(kind="sms", sender=sender, body=body,
                              received_at=self.env.now)
        self.inbox.append(message)
        self.battery_percent = max(self.battery_percent - 0.01, 0.0)
        return message

    def op_receive_mms(
        self, sender: str, body: str, attachment: str, size_kb: float = 100.0
    ) -> Generator[Any, Any, TextMessage]:
        """Deliver a multimedia message carrying ``attachment``."""
        if size_kb <= 0:
            raise DeviceError(f"MMS size must be positive, got {size_kb}")
        self._require_coverage()
        yield self.env.timeout(self.service_seconds(
            MMS_FIXED_SECONDS + MMS_PER_KB_SECONDS * size_kb))
        self._require_coverage()
        message = TextMessage(kind="mms", sender=sender, body=body,
                              attachment=attachment, received_at=self.env.now)
        self.inbox.append(message)
        self.battery_percent = max(self.battery_percent - 0.05, 0.0)
        return message
