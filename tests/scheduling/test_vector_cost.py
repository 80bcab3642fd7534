"""Vectorized cost kernels: bit-equality with the scalar oracle.

The load-bearing property is **byte-identity**: where
``build_kernel`` offers a kernel, every scheduler must produce exactly
the schedule the scalar walk produces — same assignments, same queue
orders, same tie-breaks — on every problem. Anything weaker would make
the paper's reproduced figures depend on which path a batch took.
The scalar reference is reached through the test-only seam
``scalar_walk``, which makes ``build_kernel`` decline every problem
where the schedulers look it up. The kernels' own contract (a column
is element-wise bit-equal to scalar ``estimate``) is what makes that
identity provable, so it is property-tested directly against both cost
oracles: the synthetic camera model and the engine cost model's block
entry points.
"""

import dataclasses
import pathlib

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PanTiltZoomCamera, Point, SensorMote
from repro.actions.registry import ActionRegistry
from repro.actions.builtins import install_builtin_actions
from repro.cost.model import CostModel
from repro.devices.camera import CameraCalibration, HeadPosition
from repro.errors import ProfileError
from repro.profiles.action_profile import ActionProfile, OperationRef, seq
from repro.profiles.defaults import (
    camera_cost_table,
    phone_cost_table,
    sensor_cost_table,
)
from repro.sim import Environment
from repro.scheduling import (
    BlockModelKernel,
    CachingCostModel,
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SAParameters,
    SchedRequest,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
    StaticCostModel,
    skewed_camera_workload,
    uniform_camera_workload,
)
from repro.scheduling import vector_cost
from repro.scheduling.vector_cost import build_kernel, masked_argmin
from repro.scheduling.workload import CameraStatusCostModel

from tests.scheduling.scalar_walk import KERNEL_USERS, scalar_walk

TINY_SA = SAParameters(moves_per_temperature_per_request=4,
                       max_evaluations=400)

SCHEDULER_FACTORIES = (
    lambda: SrfaeScheduler(0),
    lambda: LerfaSrfeScheduler(0),
    lambda: ListScheduler(0),
    lambda: SimulatedAnnealingScheduler(0, parameters=TINY_SA),
    lambda: RandomScheduler(0),
)


def kernel_and_scalar(factory, problem):
    """``factory()``'s schedule of ``problem`` as built, then through
    the scalar walk."""
    kernel = factory().schedule(problem)
    with scalar_walk():
        scalar = factory().schedule(problem)
    return kernel, scalar


# ----------------------------------------------------------------------
# The one selector, and the seam that bypasses it
# ----------------------------------------------------------------------
def test_a_default_scheduler_takes_the_kernel(monkeypatch):
    """``build_kernel`` alone decides: a scheduler built with no
    argument solves a camera problem through the kernel."""
    kernels = []
    solve = SrfaeScheduler._solve_vectorized

    def counted(self, problem, kernel):
        kernels.append(kernel)
        return solve(self, problem, kernel)

    monkeypatch.setattr(SrfaeScheduler, "_solve_vectorized", counted)
    SrfaeScheduler(0).schedule(uniform_camera_workload(6, 2, seed=0))
    assert len(kernels) == 1


def test_the_scalar_seam_covers_every_kernel_user():
    """``scalar_walk`` patches ``build_kernel`` in exactly the modules
    of ``src/repro`` that call it, and a camera problem that takes the
    kernel as built takes the scalar walk inside it."""
    package = pathlib.Path(vector_cost.__file__).parents[1]
    callers = set()
    for path in package.rglob("*.py"):
        if path.name == "__init__.py" or path.stem == "vector_cost":
            continue
        if "build_kernel(" in path.read_text():
            callers.add("repro." + ".".join(
                path.relative_to(package).with_suffix("").parts))
    assert callers == {module.__name__ for module in KERNEL_USERS}

    problem = uniform_camera_workload(6, 2, seed=0)
    assert build_kernel(problem) is not None
    with scalar_walk():
        assert all(module.build_kernel(problem) is None
                   for module in KERNEL_USERS)


# ----------------------------------------------------------------------
# masked_argmin: first occurrence wins, like a scalar strict-min scan
# ----------------------------------------------------------------------
def test_masked_argmin_first_occurrence_and_masking():
    costs = numpy.array([3.0, 1.0, 1.0, 2.0])
    mask = numpy.array([False, False, False, False])
    assert masked_argmin(costs, mask) == 1
    assert masked_argmin(costs, numpy.array([False, True, False, False])) == 2
    assert masked_argmin(costs, numpy.ones(4, dtype=bool)) is None


# ----------------------------------------------------------------------
# Camera kernel: columns bit-equal to the scalar estimate walk
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 20), m=st.integers(1, 5),
       seed=st.integers(0, 500), status_pick=st.integers(0, 10 ** 6))
def test_camera_kernel_columns_bit_equal(n, m, seed, status_pick):
    problem = uniform_camera_workload(n, m, seed=seed)
    model = problem.cost_model
    kernel = build_kernel(problem)
    assert kernel is not None
    for device_id in problem.device_ids:
        # Both the initial pose and an arbitrary mid-sequence pose (any
        # request's target is a reachable post-status).
        statuses = [model.initial_status(device_id),
                    problem.requests[status_pick % n].payload]
        for status in statuses:
            column = kernel.column(device_id, status)
            for i, request in enumerate(problem.requests):
                seconds, post = model.estimate(request, device_id, status)
                assert column[i] == seconds  # bit-equal, not approx
                assert kernel.post_status(i, device_id) == post


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 24), m=st.integers(1, 12),
       seed=st.integers(0, 500), status_pick=st.integers(0, 10 ** 6))
def test_camera_kernel_matrix_rows_bit_equal(n, m, seed, status_pick):
    problem = uniform_camera_workload(n, m, seed=seed)
    model = problem.cost_model
    kernel = build_kernel(problem)
    statuses = problem.initial_statuses()
    # One device mid-sequence: any request's target is a reachable pose.
    statuses[problem.device_ids[status_pick % m]] = \
        problem.requests[status_pick % n].payload
    matrix = kernel.matrix(problem.device_ids, statuses)
    assert matrix.shape == (m, n)
    for k, device_id in enumerate(problem.device_ids):
        status = statuses[device_id]
        scalar = numpy.array([model.estimate(request, device_id, status)[0]
                              for request in problem.requests])
        assert matrix[k].tobytes() == kernel.column(device_id,
                                                    status).tobytes()
        assert matrix[k].tobytes() == scalar.tobytes()


def test_camera_kernel_index_subsets():
    problem = uniform_camera_workload(12, 3, seed=7)
    kernel = build_kernel(problem)
    device_id = problem.device_ids[0]
    status = problem.cost_model.initial_status(device_id)
    full = kernel.column(device_id, status)
    indexes = numpy.array([0, 5, 11, 5], dtype=numpy.intp)
    subset = kernel.column(device_id, status, indexes)
    assert list(subset) == [full[0], full[5], full[11], full[5]]


def test_noisy_estimator_declines_the_kernel():
    noisy = uniform_camera_workload(6, 2, seed=0, estimate_noise=0.1)
    assert build_kernel(noisy) is None


def test_build_kernel_unwraps_the_memo_cache():
    problem = uniform_camera_workload(6, 2, seed=0)
    wrapped = dataclasses.replace(
        problem, cost_model=CachingCostModel(problem.cost_model))
    assert build_kernel(wrapped) is not None


def test_static_model_has_no_kernel():
    costs = {("r1", "d1"): 2.0, ("r2", "d1"): 1.0}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1",)), SchedRequest("r2", ("d1",))),
        device_ids=("d1",), cost_model=StaticCostModel(costs))
    assert build_kernel(problem) is None
    # Such a model keeps the scalar walk.
    kernel, scalar = kernel_and_scalar(lambda: SrfaeScheduler(0), problem)
    assert kernel.assignments == scalar.assignments


# ----------------------------------------------------------------------
# Byte-identity: kernel == scalar walk, all five schedulers
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 16), m=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_all_schedulers_identical_with_vectorize_on_and_off(n, m, seed):
    problem = uniform_camera_workload(n, m, seed=seed)
    for factory in SCHEDULER_FACTORIES:
        kernel, scalar = kernel_and_scalar(factory, problem)
        assert kernel.assignments == scalar.assignments


@settings(max_examples=10, deadline=None)
@given(n=st.integers(4, 16), m=st.integers(2, 5),
       skewness=st.sampled_from((0.2, 0.5, 0.8)),
       seed=st.integers(0, 500))
def test_skewed_eligibility_identical_with_vectorize(n, m, skewness, seed):
    problem = skewed_camera_workload(n, m, skewness, seed=seed)
    for factory in SCHEDULER_FACTORIES:
        kernel, scalar = kernel_and_scalar(factory, problem)
        assert kernel.assignments == scalar.assignments


def test_duplicate_targets_force_ties_identically():
    """All-equal costs make every argmin a tie: the serial/epoch order
    of the vectorized heap must reproduce the scalar tie-breaks."""
    base = uniform_camera_workload(8, 4, seed=3)
    shared = base.requests[0].payload
    problem = dataclasses.replace(base, requests=tuple(
        SchedRequest(request_id=r.request_id, candidates=r.candidates,
                     payload=shared)
        for r in base.requests))
    for factory in SCHEDULER_FACTORIES:
        kernel, scalar = kernel_and_scalar(factory, problem)
        assert kernel.assignments == scalar.assignments


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 24), m=st.integers(2, 6), groups=st.integers(1, 4),
       tied=st.booleans(), seed=st.integers(0, 1000))
def test_srfae_shared_candidate_tuples_identical_with_vectorize(
        n, m, groups, tied, seed):
    """Requests from one AQ and mote share one candidate-tuple object,
    which the vectorized eligibility matrix writes once per distinct
    tuple. Whether the requests share one object, hold equal but
    distinct tuples or list the same devices in another order — with
    distinct costs, or with one target and one initial head everywhere
    so that every key ties and candidate positions break the ties — the
    assignments are the scalar walk's."""
    import random
    base = uniform_camera_workload(n, m, seed=seed)
    if tied:
        base = dataclasses.replace(base, cost_model=CameraStatusCostModel(
            {device_id: HeadPosition() for device_id in base.device_ids}))
    rng = random.Random(seed)
    tuples = [tuple(rng.sample(base.device_ids, rng.randint(1, m)))
              for _ in range(groups)]
    variants = (
        lambda i, group: group,                              # shared
        lambda i, group: tuple(list(group)),                 # equal
        lambda i, group: group[::-1] if i % 2 else group,    # reordered
    )
    for candidates_of in variants:
        problem = dataclasses.replace(base, requests=tuple(
            SchedRequest(
                request_id=r.request_id,
                candidates=candidates_of(i, tuples[i % groups]),
                payload=base.requests[0].payload if tied else r.payload)
            for i, r in enumerate(base.requests)))
        kernel, scalar = kernel_and_scalar(lambda: SrfaeScheduler(0),
                                           problem)
        assert kernel.assignments == scalar.assignments


# ----------------------------------------------------------------------
# The engine cost model's block entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def photo_lab():
    env = Environment()
    cost_model = CostModel({table.device_type: table for table in (
        camera_cost_table(), sensor_cost_table(), phone_cost_table())})
    registry = ActionRegistry()
    install_builtin_actions(registry, cost_model)
    cameras = {
        f"cam{i + 1}": PanTiltZoomCamera(
            env, f"cam{i + 1}", Point(25.0 * i, 0.0), facing=0.0,
            view_half_angle=170.0, view_range=1000.0)
        for i in range(3)}
    return cost_model, registry.get("photo"), cameras


@settings(max_examples=25, deadline=None)
@given(coords=st.lists(
    st.tuples(st.floats(5.0, 60.0), st.floats(-25.0, 25.0)),
    min_size=1, max_size=12),
    pan=st.floats(-80.0, 80.0), tilt=st.floats(-30.0, 10.0),
    zoom=st.floats(1.0, 9.0))
def test_block_estimates_bit_equal_to_scalar(photo_lab, coords, pan,
                                             tilt, zoom):
    cost_model, photo, cameras = photo_lab
    args_list = [{"target": Point(x, y), "directory": "photos"}
                 for x, y in coords]
    status = {"pan": pan, "tilt": tilt, "zoom": zoom}
    devices = list(cameras.values())
    prepared = cost_model.prepare_block(photo.name, devices, args_list)
    block = cost_model.estimate_block(prepared, [status] * len(devices))
    for k, device in enumerate(devices):
        for i, args in enumerate(args_list):
            scalar = cost_model.estimate(photo.name, device, args,
                                         status=status)
            assert block.seconds[k, i] == scalar.seconds
            for name, quantity in scalar.quantities.items():
                assert block.quantities[name][k, i] == quantity
            post = cost_model.block_post_status(prepared, k, i)
            assert post == scalar.post_status


def test_block_model_kernel_subsets_and_posts(photo_lab):
    cost_model, photo, cameras = photo_lab
    args_list = [{"target": Point(10.0 + 7 * i, 4.0), "directory": "p"}
                 for i in range(6)]
    kernel = BlockModelKernel(cost_model, photo.name,
                              list(cameras.values()), args_list)
    device_id = next(iter(cameras))
    status = cameras[device_id].physical_status()
    full = kernel.column(device_id, status)
    indexes = numpy.array([4, 1, 1], dtype=numpy.intp)
    assert list(kernel.column(device_id, status, indexes)) == [
        full[4], full[1], full[1]]
    scalar = cost_model.estimate(photo.name, cameras[device_id],
                                 args_list[2], status=status)
    assert kernel.post_status(2, device_id) == scalar.post_status


def test_unregistered_block_resolver_is_a_profile_error(photo_lab):
    cost_model, photo, cameras = photo_lab
    device = next(iter(cameras.values()))
    with pytest.raises(ProfileError, match="block resolver"):
        cost_model.prepare_block("no-such-action", [device], [])


@settings(max_examples=25, deadline=None)
@given(mounts=st.lists(st.tuples(
    st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),  # location
    st.floats(-180.0, 180.0), st.floats(1.0, 12.0),  # facing, height
    st.floats(20.0, 170.0), st.floats(5.0, 90.0),    # pan, tilt limits
    st.floats(-170.0, 170.0), st.floats(-45.0, 90.0),
    st.floats(1.0, 10.0)),                           # head status
    min_size=1, max_size=12),
    targets=st.lists(st.tuples(st.floats(-60.0, 60.0),
                               st.floats(-60.0, 60.0)),
                     min_size=1, max_size=24))
def test_block_model_matrix_rows_bit_equal_to_columns_and_scalar(
        photo_lab, mounts, targets):
    """Every row of the one-fill matrix is the device's column, and
    both are the scalar estimates, to the bit."""
    cost_model, photo, _ = photo_lab
    env = Environment()
    cameras = []
    statuses = {}
    for k, (x, y, facing, height, pan_limit, tilt_limit,
            pan, tilt, zoom) in enumerate(mounts):
        camera = PanTiltZoomCamera(
            env, f"cam{k + 1}", Point(x, y), facing=facing,
            view_range=1000.0)
        camera.mount_height = height  # a re-mount
        camera.calibration = CameraCalibration(
            pan_min=-pan_limit, pan_max=pan_limit,
            tilt_min=-tilt_limit, tilt_max=tilt_limit)
        cameras.append(camera)
        statuses[camera.device_id] = {"pan": pan, "tilt": tilt,
                                      "zoom": zoom}
    args_list = [{"target": Point(x, y), "directory": "photos"}
                 for x, y in targets]
    kernel = BlockModelKernel(cost_model, photo.name, cameras, args_list)
    device_ids = [camera.device_id for camera in cameras]
    matrix = kernel.matrix(device_ids, statuses)
    assert matrix.shape == (len(cameras), len(args_list))
    for k, camera in enumerate(cameras):
        status = statuses[camera.device_id]
        scalar = numpy.array([
            cost_model.estimate(photo.name, camera, args,
                                status=status).seconds
            for args in args_list])
        column = kernel.column(camera.device_id, status)
        assert matrix[k].tobytes() == column.tobytes()
        assert matrix[k].tobytes() == scalar.tobytes()


def test_prepare_block_refuses_mixed_device_types(photo_lab):
    """One prepared block is one device type's: the profile and cost
    table of the first device would silently cost every other."""
    cost_model, photo, cameras = photo_lab
    env = Environment()
    mote = SensorMote(env, "mote1", Point(1.0, 1.0))
    with pytest.raises(ProfileError, match="one type"):
        cost_model.prepare_block(photo.name,
                                 [next(iter(cameras.values())), mote],
                                 [{"target": Point(5.0, 5.0)}])


def test_block_without_quantities_is_sized_to_the_block():
    """A profile with no quantities costs a constant: the block still
    comes back (devices x requests), and so does any slice of it."""
    cost_model = CostModel({"camera": camera_cost_table()})

    class _NoQuantities:
        def prepare(self, devices, args_list):
            return {}

        def resolve(self, prepared, status):
            return {}

        def post_status(self, prepared, row, index):
            return {}

    cost_model.register_action(
        ActionProfile("snap", "camera", seq(OperationRef("connect"),
                                            OperationRef("store"))),
        lambda device, status, args: ({}, dict(status)),
        block_resolver=_NoQuantities())
    env = Environment()
    cameras = [PanTiltZoomCamera(env, f"cam{k}", Point(k, 0.0))
               for k in range(3)]
    prepared = cost_model.prepare_block("snap", cameras, [{}] * 5)
    status = cameras[0].physical_status()
    scalar = cost_model.estimate("snap", cameras[0], {}, status).seconds
    block = cost_model.estimate_block(prepared, [status] * 3)
    assert block.seconds.shape == (3, 5)
    assert (block.seconds == scalar).all()
    assert cost_model.estimate_block(prepared, [status],
                                     indexes=[0, 4],
                                     rows=slice(1, 2)).seconds.shape == (1, 2)


# ----------------------------------------------------------------------
# Aim columns: one scalar aim per target and static epoch
# ----------------------------------------------------------------------
def _photo_model():
    cost_model = CostModel({table.device_type: table for table in (
        camera_cost_table(), sensor_cost_table(), phone_cost_table())})
    install_builtin_actions(ActionRegistry(), cost_model)
    return cost_model


def _aim_lab(n_cameras=4):
    env = Environment()
    cameras = [PanTiltZoomCamera(env, f"cam{k + 1}", Point(9.0 * k, -3.0),
                                 facing=20.0 * k, view_range=1000.0)
               for k in range(n_cameras)]
    args_list = [{"target": Point(x, y), "directory": "photos"}
                 for x, y in ((5.0, 4.0), (30.0, -8.0), (5.0, 4.0),
                              (-12.0, 17.0), (30.0, -8.0))]
    return env, cameras, args_list


def assert_aims_are_scalar(prepared, devices, args_list):
    """A prepared block's poses equal ``photo_resolver``'s, to the bit,
    element by element."""
    from repro.actions.builtins import photo_resolver
    status = {"pan": 0.0, "tilt": 0.0, "zoom": 1.0}
    for k, device in enumerate(devices):
        for i, args in enumerate(args_list):
            _, post = photo_resolver(device, status, args)
            for axis in ("pan", "tilt", "zoom"):
                assert numpy.float64(post[axis]).tobytes() == \
                    prepared.arrays[axis][k, i].tobytes()


@pytest.mark.parametrize("remount", [
    lambda camera: setattr(camera, "location", Point(40.0, 25.0)),
    lambda camera: setattr(camera, "view", dataclasses.replace(
        camera.view, origin=Point(camera.view.origin.x, 12.0))),
    lambda camera: setattr(camera, "mount_height", 9.0),
    lambda camera: setattr(camera, "calibration",
                           CameraCalibration(tilt_min=-10.0, zoom_max=2.0)),
], ids=["location", "view", "mount_height", "calibration"])
def test_aim_columns_follow_an_in_place_remount(remount):
    cost_model = _photo_model()
    _, cameras, args_list = _aim_lab()
    before = cost_model.prepare_block("photo", cameras, args_list)
    assert_aims_are_scalar(before, cameras, args_list)
    remount(cameras[1])
    after = cost_model.prepare_block("photo", cameras, args_list)
    assert_aims_are_scalar(after, cameras, args_list)
    # The re-mount moved the re-mounted camera's aims, and only its.
    changed = [not all((before.arrays[axis][k] == after.arrays[axis][k])
                       .all() for axis in ("pan", "tilt", "zoom"))
               for k in range(len(cameras))]
    assert changed == [False, True, False, False]


def test_aim_columns_serve_subsets_permutations_and_joins(monkeypatch):
    """A batch over any subset or order of the indexed cameras is a
    gather; only a newly indexed camera or a moved epoch asks for
    scalar aims, one per (camera, distinct target)."""
    from repro.devices.registry import DeviceRegistry
    cost_model = _photo_model()
    env, cameras, args_list = _aim_lab(n_cameras=5)
    joiner = PanTiltZoomCamera(env, "cam9", Point(-20.0, 6.0),
                               view_range=1000.0)
    registry = DeviceRegistry()
    for camera in cameras:
        registry.add(camera)
    asked = []
    aim_memoized = PanTiltZoomCamera.aim_memoized

    def counted(camera, target):
        asked.append(camera.device_id)
        return aim_memoized(camera, target)

    monkeypatch.setattr(PanTiltZoomCamera, "aim_memoized", counted)

    def prepare(devices, batch):
        """The cameras that ``prepare_block`` asked for a scalar aim."""
        del asked[:]
        prepared = cost_model.prepare_block("photo", devices, batch)
        cameras_asked = sorted(asked)
        assert_aims_are_scalar(prepared, devices, batch)
        return cameras_asked

    # Three distinct targets among the five requests.
    assert prepare(cameras[:3], args_list) == sorted(
        ["cam1", "cam2", "cam3"] * 3)
    assert prepare(cameras[1:3], args_list[:2]) == []
    assert prepare([cameras[2], cameras[0], cameras[1]],
                   args_list[::-1]) == []
    assert prepare([cameras[4], cameras[1]], args_list) == ["cam5"] * 3
    registry.add(joiner)  # a join moves the static epoch
    assert prepare([joiner] + cameras[:2], args_list) == sorted(
        ["cam9", "cam1", "cam2"] * 3)
