"""Unit tests for the schema catalog and semantic validation."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.errors import BindingError
from repro.profiles.defaults import camera_catalog, phone_catalog, sensor_catalog
from repro.query import SchemaCatalog, parse


@pytest.fixture
def tables():
    """The per-type catalog store a schema reads (the comm layer's, in
    an engine)."""
    return {catalog.device_type: catalog
            for catalog in (sensor_catalog(), camera_catalog(),
                            phone_catalog())}


@pytest.fixture
def schema(tables):
    return SchemaCatalog(tables)


def test_table_registration(schema, tables):
    assert schema.has_table("sensor")
    with pytest.raises(BindingError, match="unknown table"):
        schema.table("toaster")
    # Read in place: a catalog added to the store is a table at once.
    toaster = dataclasses.replace(sensor_catalog(), device_type="toaster")
    tables["toaster"] = toaster
    assert schema.table("toaster") is toaster


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


def test_first_bad_reference_named_whatever_the_hash_seed():
    """The BindingError names the first bad column as written.

    Validation once walked a set of references, so the column named
    depended on ``PYTHONHASHSEED``; each seed runs in its own process.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    program = ("from repro import AortaEngine\n"
               "try:\n"
               "    AortaEngine().execute("
               "'SELECT s.foo, s.bar, s.baz FROM sensor s')\n"
               "except Exception as error:\n"
               "    print(error)\n")
    messages = set()
    for seed in ("1", "2"):
        environment = dict(os.environ, PYTHONHASHSEED=seed,
                           PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-c", program], cwd=root,
                              env=environment, capture_output=True,
                              text=True, timeout=60, check=True)
        messages.add(done.stdout.strip())
    assert messages == {"table 'sensor' has no column 'foo'"}


def test_validation_follows_source_order(schema):
    statement = parse("SELECT s.accel_x, s.zz FROM sensor s, camera c "
                      "WHERE c.yy > 1 AND s.xx < 2")
    with pytest.raises(BindingError, match="no column 'zz'"):
        schema.validate_select(statement)
    statement = parse("SELECT * FROM sensor s WHERE s.loc = s.yy OR s.xx")
    with pytest.raises(BindingError, match="no column 'yy'"):
        schema.validate_select(statement)
