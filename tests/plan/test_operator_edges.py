"""Edge cases of the relational plan operators."""

import random

import pytest

from repro.errors import PlanError, ProfileError, QueryError
from repro.comm.layer import CommunicationLayer
from repro.obs import Observability
from repro.plan.operators import JoinOp, TableScanOp
from repro.profiles.defaults import (
    camera_catalog,
    camera_cost_table,
    sensor_cost_table,
)
from repro.query.parser import parse_expression
from repro.sim import Environment
from tests.core.conftest import build_lab


def run(engine, generator):
    box = []

    def proc(env):
        box.append((yield from generator))

    engine.env.process(proc(engine.env))
    engine.env.run()
    return box[0]


def test_join_rejects_shared_alias():
    engine = build_lab()
    scan_a = TableScanOp("s", engine.comm.scan_operator("sensor"))
    scan_b = TableScanOp("s", engine.comm.scan_operator("sensor"))
    join = JoinOp(scan_a, scan_b)
    with pytest.raises(PlanError, match="share aliases"):
        run(engine, join.rows())


def test_join_cardinality_is_product():
    engine = build_lab()  # 2 cameras x 3 motes
    join = JoinOp(TableScanOp("s", engine.comm.scan_operator("sensor")),
                  TableScanOp("c", engine.comm.scan_operator("camera")))
    rows = run(engine, join.rows())
    assert len(rows) == 6
    assert all(set(bindings) == {"s", "c"} for bindings in rows)


def test_filter_non_boolean_predicate_rejected():
    engine = build_lab()
    from repro.plan.operators import FilterOp
    scan = TableScanOp("c", engine.comm.scan_operator("camera"))
    bad = FilterOp(scan, parse_expression("c.pan + 1"), engine.functions)
    with pytest.raises(QueryError, match="expected bool"):
        run(engine, bad.rows())


def test_device_type_registration_validation():
    env = Environment()
    layer = CommunicationLayer(env, rng=random.Random(0),
                               obs=Observability(env))
    with pytest.raises(ProfileError, match="cost\\s+table is for"):
        layer.register_device_type(camera_catalog(), sensor_cost_table(),
                                   probe_timeout=1.0)
    with pytest.raises(ProfileError, match="probe timeout"):
        layer.register_device_type(camera_catalog(), camera_cost_table(),
                                   probe_timeout=0.0)
    # A refused registration leaves nothing behind.
    assert layer.catalogs == layer.cost_tables == layer.probe_timeouts == {}
