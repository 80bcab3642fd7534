"""Smoke tests for the ``python -m repro`` entry point."""

import argparse
import json

import pytest

import repro
from repro.__main__ import MAX_SHARDS, _shard_count, main, run_demo


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == repro.__version__


def test_banner_without_demo(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "Aorta" in out and "ICDCS 2005" in out


def test_demo_runs_to_completion(capsys):
    assert run_demo() == 0
    out = capsys.readouterr().out
    assert "Photo stored at photos/admin/" in out
    assert "request_serviced" in out


def test_sharded_demo_services_one_photo_per_region(capsys):
    assert main(["--demo", "--shards", "3"]) == 0
    out = capsys.readouterr().out
    assert "Fleet of 3 shards" in out
    assert out.count("serviced") >= 4  # three per-shard lines + total
    assert "Fleet total: 9 devices, 3 serviced" in out


def test_metrics_json_with_spans_is_one_json_document(capsys):
    assert main(["metrics", "--json", "--spans"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"metrics", "spans"}
    assert document["metrics"]["counters"]["engine.runs"] == 1.0
    assert {"engine.run", "dispatch.batch"} <= {
        span["name"] for span in document["spans"]}


@pytest.mark.parametrize("command_line, complaint", [
    ("metrics --shards 2 --spans", "report one engine"),
    ("metrics --shards 2 --fastpath", "report one engine"),
    ("metrics --shards 2 --overload", "report one engine"),
    ("--demo --shards 2 --time-scale 0.5", "single-engine --demo only"),
    ("--time-scale 0.5 metrics", "single-engine --demo only"),
    ("--demo --parallel", "--parallel needs --shards >= 2"),
    ("metrics --parallel", "--parallel needs --shards >= 2"),
    ("--shards 2", "need --demo"),
])
def test_a_flag_the_chosen_path_would_ignore_is_refused(
        command_line, complaint, capsys):
    with pytest.raises(SystemExit) as refusal:
        main(command_line.split())
    assert refusal.value.code == 2
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize("command_line", [
    "--demo --shards 2 --parallel --parallel-backend=thread",
    "metrics --shards 2 --parallel --parallel-backend=thread",
])
def test_a_worker_backend_is_no_flag(command_line, capsys):
    """A worker is a process: the thread transport is a test
    double, so no flag can choose it."""
    with pytest.raises(SystemExit) as refusal:
        main(command_line.split())
    assert refusal.value.code == 2
    assert "--parallel-backend" in capsys.readouterr().err


@pytest.mark.parametrize("command_line", [
    "--demo --shards 2 --parallel --parallel-backend thread",
    "metrics --shards 2 --parallel --parallel-backend thread",
    "--parallel-backend thread --demo",
])
def test_an_unknown_option_with_a_separate_value_is_named(
        command_line, capsys):
    # argparse took the stray value for the subcommand and reported
    # "invalid choice: 'thread'".
    with pytest.raises(SystemExit) as refusal:
        main(command_line.split())
    assert refusal.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --parallel-backend" in err
    assert "invalid choice" not in err


def test_an_abbreviated_option_still_parses(capsys):
    assert main(["--vers"]) == 0
    assert capsys.readouterr().out.strip() == repro.__version__


@pytest.mark.parametrize("command_line, complaint", [
    ("--demo --shards 0", "shards >= 1"),
    ("metrics --shards -2", "shards >= 1"),
    ("--demo --shards two", "shards >= 1"),
    ("--demo --time-scale -1", "finite scale >= 0"),
    ("--demo --time-scale nan", "finite scale >= 0"),
    ("--demo --time-scale inf", "finite scale >= 0"),
])
def test_an_out_of_range_value_is_a_usage_error(
        command_line, complaint, capsys):
    # A shard count below 1 used to run the plain engine and exit 0; a
    # negative or NaN scale died with a traceback from Environment.
    with pytest.raises(SystemExit) as refusal:
        main(command_line.split())
    assert refusal.value.code == 2
    assert complaint in capsys.readouterr().err


def test_a_shard_count_is_bounded_by_one_address_octet():
    """Region ``index`` puts its cameras at ``10.0.<index>.1``, so 256
    regions is the most the demo fleet can address; each shard is one
    worker process under ``--parallel``."""
    assert MAX_SHARDS == 256
    assert _shard_count("256") == 256
    with pytest.raises(argparse.ArgumentTypeError, match="<= 256"):
        _shard_count("257")


@pytest.mark.parametrize("command_line", [
    "--demo --shards 257",
    "metrics --shards 257",
    "--shards 257 metrics",
])
def test_too_many_shards_is_a_usage_error(command_line, capsys):
    # Refused at parse time, so no fleet is built. No case passes
    # --parallel: should the bound ever go, a test must not spawn 257
    # workers.
    with pytest.raises(SystemExit) as refusal:
        main(command_line.split())
    assert refusal.value.code == 2
    assert "shards >= 1 and <= 256" in capsys.readouterr().err


def test_fleet_flags_count_on_either_side_of_the_subcommand(capsys):
    """``--shards 2 metrics`` used to run one engine: the subparser's
    default overwrote the value given before the subcommand."""
    assert main(["--shards", "2", "metrics"]) == 0
    assert "shard=1" in capsys.readouterr().out


def test_every_flag_still_works_where_it_applies(capsys):
    assert main(["--demo", "--time-scale", "0.001"]) == 0
    assert main(["metrics", "--spans", "--fastpath", "--queries"]) == 0
    assert "span tree:" in capsys.readouterr().out
