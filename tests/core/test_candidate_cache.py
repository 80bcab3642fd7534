"""The cross-poll candidate-set cache: always equal to a fresh evaluation.

``ContinuousQueryExecutor._candidates`` serves a predicate over static
state from a per-device-table cache. The cache is only worth having if
nothing can tell it from evaluating the predicate afresh for every
event, so the property here interleaves everything that may change an
answer — joins, leaves, in-place re-mounting, DROP / re-CREATE AQ, a
user function that is not stable — and compares each served set with
the walk the executor used to do. The counts pin the point of it: one
``coverage()`` call per camera per (mote, predicate), not per request.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AortaEngine,
    Environment,
    MobilePhone,
    PanTiltZoomCamera,
    Point,
    SensorMote,
)
from repro.actions.builtins import sendphoto_profile, sendphoto_resolver
from repro.comm.tuples import DeviceTuple
from repro.query.expressions import EvaluationContext, evaluate

COVERAGE = "coverage(c.id, s.loc)"
PREDICATES = {
    "cov": COVERAGE,
    "near": "distance(c.loc, s.loc) < 25.0",
    "both": f"{COVERAGE} AND abs(c.loc_x - s.loc_x) < 30.0",
    "flaky": f"{COVERAGE} AND flaky(c.id)",
    "reading": "distance(c.loc, s.loc) < s.temperature",
}
MOTES = [Point(5.0, 3.0), Point(30.0, -4.0), Point(-12.0, 9.0)]


class Lab:
    """Cameras with a short view range, three motes, counted functions."""

    def __init__(self, n_cameras=4):
        self.env = Environment()
        self.engine = AortaEngine(self.env)
        self.joined = 0
        for _ in range(n_cameras):
            self.join(20.0 * self.joined, 0.0)
        for k, location in enumerate(MOTES):
            self.engine.add_device(SensorMote(
                self.env, f"mote{k}", location, noise_amplitude=0.0))
        #: What flaky() answers; flipping it must show at once.
        self.flaky_answer = True
        self.engine.functions.register(
            "flaky", lambda camera_id: self.flaky_answer, arity=1)
        self.coverage_calls = 0
        functions = self.engine.functions._functions
        covered = functions["coverage"]

        def counted(camera_id, location):
            self.coverage_calls += 1
            return covered(camera_id, location)

        functions["coverage"] = counted
        for name in PREDICATES:
            self.create(name)

    def join(self, x, y):
        self.joined += 1
        self.engine.add_device(PanTiltZoomCamera(
            self.env, f"cam{self.joined}", Point(x, y), facing=0.0,
            view_half_angle=170.0, view_range=28.0))

    def cameras(self):
        return self.engine.comm.registry.of_type("camera")

    def create(self, name):
        self.engine.execute(
            f'CREATE AQ {name} AS SELECT photo(c.ip, s.loc, "photos") '
            f'FROM sensor s, camera c '
            f'WHERE s.accel_x > 500 AND {PREDICATES[name]}')

    def context(self, mote_index):
        mote = self.engine.comm.registry.get(f"mote{mote_index}")
        row = DeviceTuple("sensor", mote.device_id, values=dict(
            mote.static_attributes(), temperature=22.0 + 3.0 * mote_index))
        return EvaluationContext(tuples={"s": row},
                                 functions=self.engine.functions)

    def served(self, name, mote_index):
        executor = self.engine.continuous
        return executor._candidates(executor.queries[name],
                                    self.context(mote_index))

    def fresh(self, name, mote_index):
        """The uncached walk: every camera, the interpreted predicate."""
        plan = self.engine.continuous.queries[name].plan
        context = self.context(mote_index)
        return tuple(
            device.device_id for device in self.cameras()
            if evaluate(plan.candidate_predicate, context.bind(
                plan.device_alias,
                DeviceTuple(device.device_type, device.device_id,
                            values=device.static_attributes()))))


OPERATIONS = st.one_of(
    st.tuples(st.just("ask"), st.sampled_from(sorted(PREDICATES)),
              st.integers(0, len(MOTES) - 1)),
    st.tuples(st.just("join"), st.floats(-40.0, 60.0),
              st.floats(-20.0, 20.0)),
    st.tuples(st.just("leave"), st.integers(0, 7)),
    st.tuples(st.just("move"), st.integers(0, 7), st.floats(-40.0, 60.0)),
    st.tuples(st.just("recreate"), st.sampled_from(sorted(PREDICATES))),
    st.tuples(st.just("flip")),
)


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(OPERATIONS, min_size=4, max_size=30))
def test_served_sets_equal_a_fresh_evaluation(operations):
    lab = Lab()
    for operation in operations:
        kind = operation[0]
        cameras = lab.cameras()
        if kind == "ask":
            _, name, mote = operation
            assert lab.served(name, mote) == lab.fresh(name, mote)
        elif kind == "join":
            lab.join(operation[1], operation[2])
        elif kind == "leave" and cameras:
            lab.engine.comm.remove_device(
                cameras[operation[1] % len(cameras)].device_id)
        elif kind == "move" and cameras:
            camera = cameras[operation[1] % len(cameras)]
            camera.location = Point(operation[2], camera.location.y)
        elif kind == "recreate":
            lab.engine.execute(f"DROP AQ {operation[1]}")
            lab.create(operation[1])
        elif kind == "flip":
            lab.flaky_answer = not lab.flaky_answer
    # Whatever happened, every query still answers like a fresh walk.
    for name in PREDICATES:
        for mote in range(len(MOTES)):
            assert lab.served(name, mote) == lab.fresh(name, mote)


def test_one_coverage_call_per_camera_per_membership_epoch():
    lab = Lab(n_cameras=5)
    lab.engine.execute(
        f'CREATE AQ twin AS SELECT photo(c.ip, s.loc, "other") '
        f'FROM sensor s, camera c WHERE s.light > 900 AND {COVERAGE}')
    for _ in range(10):
        # Two AQs with one predicate share the sets, whatever else
        # differs between them.
        assert lab.served("cov", 0) == lab.served("twin", 0)
    assert lab.coverage_calls == 5
    lab.served("cov", 1)
    assert lab.coverage_calls == 10  # a new mote is a new input
    lab.join(10.0, 5.0)              # a new membership epoch
    for _ in range(10):
        lab.served("cov", 0)
    assert lab.coverage_calls == 10 + 6
    lab.engine.execute("DROP AQ cov")
    lab.create("cov")                # the sets outlive the query
    lab.served("cov", 0)
    assert lab.coverage_calls == 10 + 6


def test_unstable_function_is_evaluated_for_every_event():
    lab = Lab(n_cameras=3)
    for name in PREDICATES:
        lab.served(name, 0)  # predicates are analysed at first use
    refs = {name: query.candidate_event_refs
            for name, query in lab.engine.continuous.queries.items()}
    assert [str(ref) for ref in refs["both"]] == ["s.loc", "s.loc_x"]
    assert refs["flaky"] is None
    assert refs["reading"] is None  # a sensory input hardly ever repeats
    first = lab.served("flaky", 0)
    assert first == lab.served("cov", 0) != ()
    before = lab.coverage_calls
    assert lab.served("flaky", 0) == first
    assert lab.coverage_calls == before + 3  # walked again, not served
    lab.flaky_answer = False
    assert lab.served("flaky", 0) == ()


def test_equal_candidate_sets_are_one_tuple():
    """Requests keep their sets for life: equal sets share one object.

    Every camera covers every mote here, so the cached sets of three
    motes, the walked sets of the unstable predicate and the whole
    table a query without a candidate predicate gets are all equal.
    """
    lab = Lab(n_cameras=0)
    for k in range(3):
        lab.engine.add_device(PanTiltZoomCamera(
            lab.env, f"wide{k}", Point(-50.0 + k, 0.0), facing=0.0,
            view_half_angle=170.0, view_range=1e9))
    lab.engine.execute(
        'CREATE AQ anyone AS SELECT photo(c.ip, s.loc, "photos") '
        'FROM sensor s, camera c WHERE s.accel_x > 500')
    served = [lab.served(name, mote)
              for name in ("cov", "flaky", "anyone")
              for mote in range(len(MOTES)) for _ in range(2)]
    assert set(served) == {("wide0", "wide1", "wide2")}
    assert len({id(candidates) for candidates in served}) == 1


def test_remounting_a_camera_in_place_drops_its_tables_sets():
    lab = Lab(n_cameras=3)
    assert "cam1" in lab.served("near", 0)
    lab.cameras()[0].location = Point(500.0, 500.0)
    assert "cam1" not in lab.served("near", 0)
    # coverage() reads the view sector, which is mount geometry and not
    # a table column: replacing it must be noticed all the same.
    camera = lab.cameras()[1]
    assert camera.device_id in lab.served("cov", 0)
    camera.view = type(camera.view)(
        origin=camera.view.origin, center=camera.view.center,
        half_angle=camera.view.half_angle, max_range=0.5)
    assert camera.device_id not in lab.served("cov", 0)


def test_remounting_a_device_named_by_literal_id_refreshes_other_tables():
    """The static epoch is registry-wide: re-mounting ``cam1`` in place
    refreshes a phone table's sets whose predicate names ``cam1`` by
    literal id, though no phone changed. (The ``OR`` keeps the
    ``coverage()`` conjunct on the phone side of the plan.)"""
    lab = Lab(n_cameras=2)
    for k in range(2):
        lab.engine.add_device(MobilePhone(
            lab.env, f"phone{k}", Point(0.0, 0.0), number=f"555-000{k}"))
    lab.engine.install_action_code("lib/users/sendphoto.dll",
                                   lambda device, args: iter(()))
    lab.engine.install_action_profile(
        "profiles/users/sendphoto.xml", sendphoto_profile(),
        sendphoto_resolver, device_parameters={"phone_no": "number"})
    lab.engine.execute('''CREATE ACTION sendphoto(String phone_no,
                                                  String photo_pathname)
        AS "lib/users/sendphoto.dll"
        PROFILE "profiles/users/sendphoto.xml"''')
    lab.engine.execute('''CREATE AQ notify AS
        SELECT sendphoto(p.number, "photos/alert.jpg")
        FROM sensor s, phone p
        WHERE s.accel_x > 500
          AND (coverage("cam1", s.loc) OR p.loc_x > 1000.0)''')
    assert lab.served("notify", 0) == ("phone0", "phone1")
    calls = lab.coverage_calls
    assert lab.served("notify", 0) == ("phone0", "phone1")
    assert lab.coverage_calls == calls  # served from the phone table
    camera = lab.engine.comm.registry.get("cam1")
    camera.view = type(camera.view)(
        origin=camera.view.origin, center=camera.view.center,
        half_angle=camera.view.half_angle, max_range=0.5)
    assert lab.served("notify", 0) == ()
