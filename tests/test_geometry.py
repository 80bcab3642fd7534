"""Unit and property tests for 2-D geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, ViewSector, angle_difference, normalize_angle

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
angles = st.floats(min_value=-720, max_value=720, allow_nan=False)


def test_distance():
    assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


def test_bearing_cardinal_directions():
    origin = Point(0, 0)
    assert origin.bearing_to(Point(1, 0)) == pytest.approx(0.0)
    assert origin.bearing_to(Point(0, 1)) == pytest.approx(90.0)
    assert origin.bearing_to(Point(-1, 0)) == pytest.approx(-180.0)
    assert origin.bearing_to(Point(0, -1)) == pytest.approx(-90.0)


def test_point_unpacks():
    x, y = Point(1.5, 2.5)
    assert (x, y) == (1.5, 2.5)


def test_normalize_angle_examples():
    assert normalize_angle(190) == pytest.approx(-170)
    assert normalize_angle(-190) == pytest.approx(170)
    assert normalize_angle(360) == pytest.approx(0)
    assert normalize_angle(180) == pytest.approx(-180)


@settings(deadline=None)
@given(angles)
def test_normalize_angle_range(angle):
    folded = normalize_angle(angle)
    assert -180 <= folded < 180


@settings(deadline=None)
@given(angles)
def test_normalize_angle_preserves_direction(angle):
    folded = normalize_angle(angle)
    # Same direction: sin/cos agree.
    assert math.sin(math.radians(folded)) == pytest.approx(
        math.sin(math.radians(angle)), abs=1e-9)
    assert math.cos(math.radians(folded)) == pytest.approx(
        math.cos(math.radians(angle)), abs=1e-9)


@settings(deadline=None)
@given(angles, angles)
def test_angle_difference_symmetric_and_bounded(a, b):
    diff = angle_difference(a, b)
    assert 0 <= diff <= 180
    assert diff == pytest.approx(angle_difference(b, a), abs=1e-9)


@settings(deadline=None)
@given(finite, finite, finite, finite)
def test_distance_symmetry(ax, ay, bx, by):
    a, b = Point(ax, ay), Point(bx, by)
    assert a.distance_to(b) == pytest.approx(b.distance_to(a))


def test_sector_covers_inside():
    sector = ViewSector(Point(0, 0), center=0, half_angle=45, max_range=10)
    assert sector.covers(Point(5, 0))
    assert sector.covers(Point(5, 4))      # within 45 degrees
    assert not sector.covers(Point(0, 5))  # 90 degrees off-center
    assert not sector.covers(Point(20, 0))  # beyond range


def test_sector_covers_own_origin():
    sector = ViewSector(Point(0, 0), center=0, half_angle=10, max_range=1)
    assert sector.covers(Point(0, 0))


def test_sector_validation():
    with pytest.raises(ValueError, match="half_angle"):
        ViewSector(Point(0, 0), center=0, half_angle=0, max_range=1)
    with pytest.raises(ValueError, match="max_range"):
        ViewSector(Point(0, 0), center=0, half_angle=10, max_range=0)


def test_full_circle_sector_covers_all_bearings():
    sector = ViewSector(Point(0, 0), center=0, half_angle=180, max_range=10)
    for angle in range(0, 360, 30):
        target = Point(5 * math.cos(math.radians(angle)),
                       5 * math.sin(math.radians(angle)))
        assert sector.covers(target)


@settings(deadline=None)
@given(st.floats(min_value=-180, max_value=179.999),
       st.floats(min_value=0.5, max_value=9.5))
def test_sector_boundary_property(bearing, distance):
    sector = ViewSector(Point(0, 0), center=0, half_angle=60, max_range=10)
    target = Point(distance * math.cos(math.radians(bearing)),
                   distance * math.sin(math.radians(bearing)))
    expected = angle_difference(bearing, 0) <= 60
    assert sector.covers(target) == expected
