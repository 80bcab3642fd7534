"""Unit and property tests for the geometric radio topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.geometry import Point
from repro.devices import SensorMote
from repro.network.topology import BASE_STATION, RadioTopology
from repro.sim import Environment


def line_positions(spacing, count):
    return {f"m{i + 1}": Point(spacing * (i + 1), 0.0)
            for i in range(count)}


def test_chain_depths():
    topology = RadioTopology(base_station=Point(0, 0), radio_range=10.0)
    depths = topology.hop_depths(line_positions(10.0, 4))
    assert depths == {"m1": 1, "m2": 2, "m3": 3, "m4": 4}


def test_direct_reach_is_one_hop():
    topology = RadioTopology(base_station=Point(0, 0), radio_range=100.0)
    depths = topology.hop_depths(line_positions(10.0, 3))
    assert depths == {"m1": 1, "m2": 1, "m3": 1}


def test_unreachable_mote_is_none():
    topology = RadioTopology(base_station=Point(0, 0), radio_range=5.0)
    positions = {"near": Point(4, 0), "far": Point(100, 0)}
    depths = topology.hop_depths(positions)
    assert depths == {"near": 1, "far": None}
    assert topology.reachable(positions) == ["near"]


def test_relay_extends_reach():
    """A mote out of base range is reachable through a neighbour."""
    topology = RadioTopology(base_station=Point(0, 0), radio_range=6.0)
    positions = {"relay": Point(5, 0), "edge": Point(10, 0)}
    assert topology.hop_depths(positions) == {"relay": 1, "edge": 2}


def test_assign_hop_depths_to_motes():
    env = Environment()
    topology = RadioTopology(base_station=Point(0, 0), radio_range=10.0)
    motes = [SensorMote(env, f"m{i + 1}", Point(10.0 * (i + 1), 0))
             for i in range(3)]
    motes.append(SensorMote(env, "lost", Point(500, 500)))
    unreachable = topology.assign_hop_depths(motes)
    assert [m.hop_depth for m in motes[:3]] == [1, 2, 3]
    assert [m.device_id for m in unreachable] == ["lost"]


def test_reserved_base_name_rejected():
    topology = RadioTopology(base_station=Point(0, 0), radio_range=5.0)
    with pytest.raises(CommunicationError, match="reserved"):
        topology.hop_depths({BASE_STATION: Point(1, 1)})


def test_invalid_range_rejected():
    with pytest.raises(CommunicationError, match="radio_range"):
        RadioTopology(base_station=Point(0, 0), radio_range=0.0)


coordinates = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(
    st.sampled_from([f"m{i}" for i in range(8)]),
    st.tuples(coordinates, coordinates), min_size=1))
def test_depth_properties(raw_positions):
    positions = {name: Point(x, y)
                 for name, (x, y) in raw_positions.items()}
    small = RadioTopology(base_station=Point(0, 0), radio_range=10.0)
    large = RadioTopology(base_station=Point(0, 0), radio_range=40.0)
    small_depths = small.hop_depths(positions)
    large_depths = large.hop_depths(positions)
    for name, location in positions.items():
        # Anything within direct range is exactly one hop.
        if location.distance_to(Point(0, 0)) <= 10.0:
            assert small_depths[name] == 1
        # A larger radio range never increases any depth.
        if small_depths[name] is not None:
            assert large_depths[name] is not None
            assert large_depths[name] <= small_depths[name]
