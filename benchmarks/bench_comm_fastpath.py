"""Status-cache benchmark: probe traffic and batch latency over the
one comm path.

Drives a continuous multi-query workload — 50 registered AQs over a
54-device fleet (40 PTZ cameras, 8 sensor motes, 6 phones) — and
compares two engines that differ in ``status_cache`` only (pooled
channels and per-action dispatch are how both talk to devices):

* ``fastpath_off`` — Section 4 as written: every batch pays a full
  probe exchange per candidate.
* ``fastpath_on`` — the TTL device-status cache answers for candidates
  probed within their type's freshness window.

The queries are band predicates over ``accel_x`` (40 photo bands, 10
sendphoto bands), so each stimulus fires exactly one query. That makes
the workload adversarial-but-fair for the cache: every batch still
probes/costs the full 40-camera candidate set, while execution touches
(and therefore invalidates) only the one device that serviced it.

Writes a machine-readable ``BENCH_comm_fastpath.json`` at the repo
root. The acceptance gate: with the cache on, probe exchanges drop by
>= 2x and mean batch makespan is no worse (within 2 %: candidates are
probed in parallel, so skipping most of them saves exchanges, not
batch latency — the latency the old gate credited to the fast path was
the pool's, which both runs now have); in each run at least half of
all channel checkouts are pool hits (the old off-vs-on handshake ratio
of >= 2x, restated for a single run now that there is no un-pooled
engine to compare against); the serviced set is unchanged, and a
repeat run is bit-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_comm_fastpath.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import format_table, record, write_result  # noqa: E402

from repro.actions.builtins import (  # noqa: E402
    sendphoto_profile,
    sendphoto_resolver,
)
from repro.core.config import EngineConfig  # noqa: E402
from repro.core.engine import AortaEngine  # noqa: E402
from repro.devices.camera import PanTiltZoomCamera  # noqa: E402
from repro.devices.phone import MobilePhone  # noqa: E402
from repro.devices.sensor import SensorMote, SensorStimulus  # noqa: E402
from repro.geometry import Point  # noqa: E402
from repro.sim import Environment  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_comm_fastpath.json")

#: Fleet shape: >= 40 devices per the experiment design.
N_CAMERAS = 40
N_MOTES = 8
N_PHONES = 6

#: Query mix: 40 photo bands + 10 sendphoto bands = 50 continuous AQs.
N_PHOTO_QUERIES = 40
N_SENDPHOTO_QUERIES = 10

#: Stimulus cadence: one band-targeted event every EVENT_PERIOD
#: seconds, held for STIMULUS_SECONDS. Polls cycle every few virtual
#: seconds here (phone scans ride the 300 ms carrier link), so the
#: stimulus must outlast the slowest poll cycle in either config —
#: otherwise the two runs drop *different* events and the serviced-set
#: comparison is apples to oranges.
EVENT_PERIOD = 12.0
STIMULUS_SECONDS = 10.0
FULL_EVENTS = 50
SMOKE_EVENTS = 12
DRAIN = 40.0

#: Cache TTLs sized to the workload: batches arrive every ~5 s, so the
#: camera status survives between batches; phone/sensor defaults apply.
STATUS_TTLS = {"camera": 30.0, "sensor": 3.0, "phone": 15.0}

#: Acceptance thresholds.
TARGET_PROBE_RATIO = 2.0
TARGET_POOL_HIT_RATE = 0.5
MAX_MAKESPAN_RATIO = 1.02


def photo_band(k: int) -> tuple[float, float]:
    """Photo query k fires on accel_x in (500+10k, 510+10k]."""
    return 500.0 + 10.0 * k, 510.0 + 10.0 * k


def sendphoto_band(j: int) -> tuple[float, float]:
    """Sendphoto query j fires on accel_x in (900+10j, 910+10j]."""
    return 900.0 + 10.0 * j, 910.0 + 10.0 * j


def install_sendphoto(engine: AortaEngine) -> None:
    def impl(device, args):
        yield from device.execute("connect")
        outcome = yield from device.execute(
            "receive_mms", sender="aorta", body="photo",
            attachment=args["photo_pathname"], size_kb=50.0)
        return outcome.detail

    engine.install_action_code("lib/users/sendphoto.dll", impl)
    engine.install_action_profile(
        "profiles/users/sendphoto.xml", sendphoto_profile(),
        sendphoto_resolver, device_parameters={"phone_no": "number"})
    engine.execute('''CREATE ACTION sendphoto(String phone_no,
                                              String photo_pathname)
        AS "lib/users/sendphoto.dll"
        PROFILE "profiles/users/sendphoto.xml"''')


def build_engine(status_cache: bool) -> AortaEngine:
    config = EngineConfig(
        status_cache=status_cache,
        status_ttls=STATUS_TTLS if status_cache else None,
    )
    env = Environment()
    engine = AortaEngine(env, config=config, seed=0)
    # Cameras on a wide arc, all covering the mote field.
    for k in range(N_CAMERAS):
        engine.add_device(PanTiltZoomCamera(
            env, f"cam{k + 1:02d}", Point(2.5 * k, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0,
            ip_address=f"10.0.0.{k + 1}"))
    for m in range(N_MOTES):
        engine.add_device(SensorMote(
            env, f"mote{m + 1}", Point(10.0 + 10.0 * m, 20.0),
            noise_amplitude=0.0))
    for p in range(N_PHONES):
        engine.add_device(MobilePhone(
            env, f"phone{p + 1}", Point(5.0 * p, 40.0),
            number=f"+8529000{p:04d}"))

    install_sendphoto(engine)
    for k in range(N_PHOTO_QUERIES):
        low, high = photo_band(k)
        engine.execute(f'''CREATE AQ photo_band{k:02d} AS
            SELECT photo(c.ip, s.loc, "photos/band{k:02d}")
            FROM sensor s, camera c
            WHERE s.accel_x > {low} AND s.accel_x <= {high}
              AND coverage(c.id, s.loc)''')
    for j in range(N_SENDPHOTO_QUERIES):
        low, high = sendphoto_band(j)
        engine.execute(f'''CREATE AQ notify_band{j:02d} AS
            SELECT sendphoto(p.number, "photos/alert{j:02d}.jpg")
            FROM sensor s, phone p
            WHERE s.accel_x > {low} AND s.accel_x <= {high}''')
    return engine


def inject_stimuli(engine: AortaEngine, n_events: int) -> None:
    """One band-targeted spike every EVENT_PERIOD seconds.

    Event i hits mote ``i % N_MOTES`` with a magnitude centered in band
    ``i % 50`` — bands 0..39 fire one photo query, 40..49 one sendphoto
    query (which fans out to every phone). Deterministic by
    construction: no RNG involved.
    """
    for i in range(n_events):
        band = i % (N_PHOTO_QUERIES + N_SENDPHOTO_QUERIES)
        if band < N_PHOTO_QUERIES:
            low, high = photo_band(band)
        else:
            low, high = sendphoto_band(band - N_PHOTO_QUERIES)
        magnitude = (low + high) / 2.0
        mote = engine.comm.registry.get(f"mote{i % N_MOTES + 1}")
        mote.inject(SensorStimulus("accel_x", start=4.0 + EVENT_PERIOD * i,
                                   duration=STIMULUS_SECONDS,
                                   magnitude=magnitude))


def run_engine(status_cache: bool, n_events: int) -> dict:
    engine = build_engine(status_cache)
    inject_stimuli(engine, n_events)
    engine.start()
    engine.run(until=4.0 + EVENT_PERIOD * n_events + DRAIN)

    stats = engine.statistics()
    reports = engine.dispatcher.reports
    makespans = [r.makespan_seconds for r in reports]
    # Auto request ids come from a process-global counter and exact
    # submission timestamps shift when the cache shortens batches,
    # so identify a request by the band event that produced it:
    # event i fires at 4 + EVENT_PERIOD*i, the detecting poll lands
    # well inside the period, and one band event fires exactly one
    # query. (Candidate sets are not compared — dispatch narrows them
    # to the probe-available subset, which legitimately varies with
    # lossy-link RNG draws.)
    serviced_ids = sorted(
        (int((r.created_at - 4.0) // EVENT_PERIOD), r.action_name)
        for r in engine.completed_requests
        if r.state.value == "serviced")
    result = {
        "batches": len(reports),
        "serviced": stats["requests_serviced"],
        "failed": stats["requests_failed"],
        "probes_sent": stats["probes_sent"],
        # Every handshake is a pool miss: the pool is the transport's
        # only caller of connect().
        "connects_attempted": stats["pool_misses"],
        "mean_makespan_seconds": (sum(makespans) / len(makespans)
                                  if makespans else 0.0),
        "max_makespan_seconds": max(makespans, default=0.0),
        "virtual_time": stats["virtual_time"],
        "serviced_ids": serviced_ids,
        "pool": _block(stats, "pool_", (
            "hits", "misses", "hit_rate", "expired", "invalidations",
            "discards", "idle")),
    }
    if status_cache:
        result["status_cache"] = _block(stats, "status_cache_", (
            "hits", "misses", "hit_rate", "expired", "stores",
            "invalidations", "entries"))
    return result


def _block(stats: dict, prefix: str, keys: tuple) -> dict:
    """The ``prefix``-ed statistics() keys, with the prefix dropped."""
    return {key: stats[prefix + key] for key in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short horizon for CI")
    args = parser.parse_args(argv)
    n_events = SMOKE_EVENTS if args.smoke else FULL_EVENTS

    off = run_engine(False, n_events)
    on = run_engine(True, n_events)
    repeat = run_engine(True, n_events)

    probe_ratio = (off["probes_sent"] / on["probes_sent"]
                   if on["probes_sent"] else float("inf"))
    pool_hit_rate = min(off["pool"]["hit_rate"], on["pool"]["hit_rate"])
    deterministic = on == repeat
    serviced_unchanged = off["serviced_ids"] == on["serviced_ids"]
    latency_not_worse = (
        on["mean_makespan_seconds"]
        <= MAX_MAKESPAN_RATIO * off["mean_makespan_seconds"])
    gates = {
        "probe_amortized": probe_ratio >= TARGET_PROBE_RATIO,
        "pool_hit_rate": pool_hit_rate >= TARGET_POOL_HIT_RATE,
        "latency_not_worse": latency_not_worse,
        "deterministic": deterministic,
        "serviced_unchanged": serviced_unchanged,
    }

    # The id lists exist to compare runs; keep the JSON readable.
    for run in (off, on, repeat):
        run.pop("serviced_ids")
    payload = {
        "benchmark": "bench_comm_fastpath",
        "workload": (f"{N_PHOTO_QUERIES} photo-band + "
                     f"{N_SENDPHOTO_QUERIES} sendphoto-band AQs over "
                     f"{N_CAMERAS} cameras, {N_MOTES} motes, "
                     f"{N_PHONES} phones; one band event every "
                     f"{EVENT_PERIOD}s x {n_events} events"),
        "smoke": args.smoke,
        "status_ttls": STATUS_TTLS,
        "fastpath_off": off,
        "fastpath_on": on,
        "gate": {
            "target_probe_ratio": TARGET_PROBE_RATIO,
            "target_pool_hit_rate": TARGET_POOL_HIT_RATE,
            "max_makespan_ratio": MAX_MAKESPAN_RATIO,
            "probe_ratio": round(probe_ratio, 3),
            "pool_hit_rate": round(pool_hit_rate, 3),
            "mean_makespan_off": round(off["mean_makespan_seconds"], 6),
            "mean_makespan_on": round(on["mean_makespan_seconds"], 6),
        },
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    rows = [
        ("fastpath_off", off["batches"], off["serviced"],
         off["probes_sent"], off["connects_attempted"],
         off["mean_makespan_seconds"]),
        ("fastpath_on", on["batches"], on["serviced"],
         on["probes_sent"], on["connects_attempted"],
         on["mean_makespan_seconds"]),
    ]
    table = format_table(
        ("config", "batches", "serviced", "probes", "connects",
         "mean_makespan_s"), rows)
    verdict = (
        f"gate (probes >= {TARGET_PROBE_RATIO:.0f}x, pool hit rate >= "
        f"{TARGET_POOL_HIT_RATE:.0%}, latency not worse, deterministic, "
        f"serviced unchanged): {'PASS' if exit_code == 0 else 'FAIL'} "
        f"(probes {probe_ratio:.1f}x, pool hit rate {pool_hit_rate:.0%}, "
        f"makespan {off['mean_makespan_seconds']:.3f}s -> "
        f"{on['mean_makespan_seconds']:.3f}s)")
    record("comm_fastpath",
           "Status cache over the one comm path: probe amortization, "
           "pool hit rate and batch latency",
           table + "\n\n" + verdict +
           f"\nJSON: {os.path.relpath(JSON_PATH)}",
           smoke=args.smoke)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
