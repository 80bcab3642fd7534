"""Unit tests for the cost model, including sequence-dependent chains."""

import pytest

from repro.errors import ProfileError, RegistrationError
from repro.geometry import Point
from repro.devices import PanTiltZoomCamera
from repro.cost import CostModel
from repro.actions.builtins import photo_profile, photo_resolver
from repro.profiles.action_profile import ActionProfile, OperationRef, seq
from repro.profiles.defaults import camera_cost_table
from repro.sim import Environment


@pytest.fixture
def cost_tables():
    """The per-type store a cost model reads (the comm layer's, in an
    engine)."""
    return {"camera": camera_cost_table()}


@pytest.fixture
def model(cost_tables):
    model = CostModel(cost_tables)
    model.register_action(photo_profile(), photo_resolver)
    return model


@pytest.fixture
def camera():
    return PanTiltZoomCamera(Environment(), "cam1", Point(0, 0))


def test_photo_estimate_from_rest(model, camera):
    # Target straight ahead: pan 0, only tilt/zoom move.
    target = Point(10, 0)
    estimate = model.estimate("photo", camera, {"target": target})
    aimed = camera.aim_for(target)
    expected_move = max(abs(aimed.tilt) / 27.0, abs(aimed.zoom - 1.0) / 3.0)
    assert estimate.seconds == pytest.approx(0.36 + expected_move)


def test_estimate_matches_simulated_execution(model, camera):
    """The core accuracy claim: estimate == actual device time."""
    env = camera.env
    target = Point(5, 8)
    estimate = model.estimate("photo", camera, {"target": target})
    start = env.now

    def proc(env):
        yield from camera.take_photo(target, "photos")

    env.process(proc(env))
    env.run()
    assert env.now - start == pytest.approx(estimate.seconds)


def test_post_status_is_aimed_pose(model, camera):
    target = Point(0, 10)
    estimate = model.estimate("photo", camera, {"target": target})
    aimed = camera.aim_for(target)
    assert estimate.post_status["pan"] == pytest.approx(aimed.pan)
    assert estimate.post_status["tilt"] == pytest.approx(aimed.tilt)


def test_sequence_chaining_changes_costs(model, camera):
    """Second photo at the same target is cheap after the first aimed."""
    target = Point(0, 10)  # 90 degrees of pan from rest
    estimates = model.estimate_sequence(
        "photo", camera, [{"target": target}, {"target": target}])
    assert estimates[0].seconds > 0.36 + 1.0  # big first move
    assert estimates[1].seconds == pytest.approx(0.36)  # already aimed


def test_sequence_order_matters(model, camera):
    """a->b->a costs more than a->a->b: sequence-dependence."""
    a, b = Point(10, 0), Point(-10, 0)
    aba = sum(e.seconds for e in model.estimate_sequence(
        "photo", camera, [{"target": a}, {"target": b}, {"target": a}]))
    aab = sum(e.seconds for e in model.estimate_sequence(
        "photo", camera, [{"target": a}, {"target": a}, {"target": b}]))
    assert aba > aab


def test_explicit_status_overrides_live(model, camera):
    target = Point(10, 0)
    aimed = camera.aim_for(target)
    status = {"pan": aimed.pan, "tilt": aimed.tilt, "zoom": aimed.zoom}
    estimate = model.estimate("photo", camera, {"target": target},
                              status=status)
    assert estimate.seconds == pytest.approx(0.36)


def test_unknown_action_raises(model, camera):
    with pytest.raises(ProfileError, match="no profile"):
        model.estimate("warp", camera, {})


def test_duplicate_action_rejected(model):
    with pytest.raises(RegistrationError, match="already registered"):
        model.register_action(photo_profile(), photo_resolver)


def test_register_action_without_cost_table_rejected():
    model = CostModel({})
    with pytest.raises(ProfileError, match="no cost table"):
        model.register_action(photo_profile(), photo_resolver)


def test_cost_tables_are_read_in_place():
    """A table added to the store after the model was built is used:
    the model keeps no copy."""
    cost_tables = {}
    model = CostModel(cost_tables)
    cost_tables["camera"] = camera_cost_table()
    model.register_action(photo_profile(), photo_resolver)
    camera = PanTiltZoomCamera(Environment(), "cam1", Point(0, 0))
    assert model.estimate("photo", camera, {"target": Point(10, 0)}).seconds


def test_profile_with_unknown_operation_rejected_at_registration(
        cost_tables):
    model = CostModel(cost_tables)
    bad = ActionProfile("bad", "camera", seq(OperationRef("levitate")))
    with pytest.raises(ProfileError, match="levitate"):
        model.register_action(bad, photo_resolver)


def test_resolver_missing_quantity_detected(model, camera):
    def broken_resolver(device, status, args):
        return {"pan_degrees": 1.0}, {}

    profile = ActionProfile(
        "photo2", "camera",
        seq(OperationRef("pan", quantity="pan_degrees"),
            OperationRef("tilt", quantity="tilt_degrees")))
    model.register_action(profile, broken_resolver)
    with pytest.raises(ProfileError, match="tilt_degrees"):
        model.estimate("photo2", camera, {})
