"""Unit tests for the schema catalog and semantic validation."""

import pytest

from repro.errors import BindingError, RegistrationError
from repro.profiles.defaults import camera_catalog, phone_catalog, sensor_catalog
from repro.query import SchemaCatalog, parse


@pytest.fixture
def schema():
    schema = SchemaCatalog()
    schema.register_table(sensor_catalog())
    schema.register_table(camera_catalog())
    schema.register_table(phone_catalog())
    return schema


def test_table_registration(schema):
    assert schema.has_table("sensor")
    with pytest.raises(BindingError, match="unknown table"):
        schema.table("toaster")


def test_duplicate_table_rejected(schema):
    with pytest.raises(RegistrationError, match="already registered"):
        schema.register_table(sensor_catalog())


def test_has_column_includes_loc_pseudo(schema):
    assert schema.has_column("sensor", "accel_x")
    assert schema.has_column("sensor", "loc")
    assert not schema.has_column("sensor", "altitude")


def test_validate_figure_1_query(schema):
    statement = parse('''CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)''')
    schema.validate_select(statement.query)  # should not raise


def test_validate_unknown_table(schema):
    statement = parse("SELECT * FROM toaster t")
    with pytest.raises(BindingError, match="unknown table"):
        schema.validate_select(statement)


def test_validate_unknown_alias(schema):
    statement = parse("SELECT x.accel_x FROM sensor s")
    with pytest.raises(BindingError, match="unknown table alias"):
        schema.validate_select(statement)


def test_validate_unknown_column(schema):
    statement = parse("SELECT s.altitude FROM sensor s")
    with pytest.raises(BindingError, match="no column"):
        schema.validate_select(statement)


def test_validate_ambiguous_unqualified_column(schema):
    statement = parse("SELECT id FROM sensor s, camera c")
    with pytest.raises(BindingError, match="ambiguous"):
        schema.validate_select(statement)


def test_validate_unqualified_unique_column(schema):
    statement = parse("SELECT accel_x FROM sensor s, camera c")
    schema.validate_select(statement)  # accel_x only in sensor


def test_resolve_alias_type(schema):
    statement = parse("SELECT * FROM sensor s, camera c")
    assert schema.resolve_alias_type(statement, "s") == "sensor"
    assert schema.resolve_alias_type(statement, "c") == "camera"
    assert schema.resolve_alias_type(statement, "x") is None
