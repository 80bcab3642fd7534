"""Unit tests for the simulated cell phone."""

import pytest

from repro.errors import CommunicationError, DeviceError
from repro.geometry import Point
from repro.devices import MobilePhone, TextMessage
from repro.devices.phone import MMS_FIXED_SECONDS, MMS_PER_KB_SECONDS, SMS_SECONDS
from repro.sim import Environment


def make_phone(env, **kwargs):
    kwargs.setdefault("number", "+85290000000")
    return MobilePhone(env, "phone1", Point(0, 0), **kwargs)


def test_phone_requires_number():
    env = Environment()
    with pytest.raises(DeviceError, match="number"):
        MobilePhone(env, "p", Point(0, 0), number="")


def test_receive_sms_lands_in_inbox():
    env = Environment()
    phone = make_phone(env)

    def proc(env):
        yield from phone.execute("receive_sms", sender="aorta",
                                 body="motion detected")

    env.process(proc(env))
    env.run()
    assert len(phone.inbox) == 1
    message = phone.inbox[0]
    assert message.kind == "sms"
    assert message.body == "motion detected"
    assert message.received_at == pytest.approx(SMS_SECONDS)


def test_receive_mms_carries_attachment():
    env = Environment()
    phone = make_phone(env)

    def proc(env):
        yield from phone.execute(
            "receive_mms", sender="aorta", body="snapshot",
            attachment="photos/admin/cam1_1_000.jpg", size_kb=200.0)

    env.process(proc(env))
    env.run()
    assert phone.inbox[0].attachment.endswith(".jpg")
    assert env.now == pytest.approx(MMS_FIXED_SECONDS + 200 * MMS_PER_KB_SECONDS)


def test_out_of_coverage_blocks_delivery():
    env = Environment()
    phone = make_phone(env)
    phone.leave_coverage()

    def proc(env):
        yield from phone.execute("receive_sms", sender="a", body="b")

    env.process(proc(env))
    with pytest.raises(CommunicationError, match="out of coverage"):
        env.run()


def test_coverage_loss_mid_delivery_fails():
    env = Environment()
    phone = make_phone(env)

    def deliver(env):
        yield from phone.execute("receive_sms", sender="a", body="b")

    def dropout(env):
        yield env.timeout(SMS_SECONDS / 2)
        phone.leave_coverage()

    env.process(deliver(env))
    env.process(dropout(env))
    with pytest.raises(CommunicationError, match="out of coverage"):
        env.run()
    assert phone.inbox == []


def test_reentering_coverage_restores_service():
    env = Environment()
    phone = make_phone(env)
    phone.leave_coverage()
    phone.enter_coverage()

    def proc(env):
        yield from phone.execute("receive_sms", sender="a", body="b")

    env.process(proc(env))
    env.run()
    assert len(phone.inbox) == 1


def test_invalid_mms_size_rejected():
    env = Environment()
    phone = make_phone(env)

    def proc(env):
        yield from phone.execute("receive_mms", sender="a", body="b",
                                 attachment="x.jpg", size_kb=0)

    env.process(proc(env))
    with pytest.raises(DeviceError, match="size"):
        env.run()


def test_message_kind_validation():
    with pytest.raises(DeviceError, match="kind"):
        TextMessage(kind="fax", sender="a", body="b")
    with pytest.raises(DeviceError, match="attachment"):
        TextMessage(kind="mms", sender="a", body="b")


def test_static_attributes_include_number_and_mms():
    env = Environment()
    phone = make_phone(env)
    row = phone.static_attributes()
    assert row["number"] == "+85290000000"
    assert row["mms_support"] is True


def test_physical_status_reports_coverage():
    env = Environment()
    phone = make_phone(env)
    assert phone.physical_status()["in_coverage"] == 1.0
    phone.leave_coverage()
    assert phone.physical_status()["in_coverage"] == 0.0
