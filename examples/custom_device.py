#!/usr/bin/env python3
"""Extending Aorta with a new device type, end to end.

The paper lists "extending the uniform data communication layer to
support new types of devices" as future work; the layer was designed
generically to make that cheap. This example adds a **smart door
lock** — a device type the paper never had — and drives it from a
declarative query, touching every extension point:

1. a device simulator (`DoorLock`, with physical status and atomic
   operations);
2. device profiles: a catalog (virtual table schema) and an
   atomic-operation cost table;
3. a network link model for its medium (Zigbee-ish);
4. a user-defined action `lockdown()` with profile + resolver,
   registered through CREATE ACTION;
5. an AQ that locks doors near a sensed intrusion.

Run:  python examples/custom_device.py
"""

from typing import Any, Dict, Generator

from repro import (
    AortaEngine,
    Environment,
    Point,
    SensorMote,
    SensorStimulus,
)
from repro.devices.base import Device
from repro.network import LinkModel
from repro.network.link import DEFAULT_LINKS
from repro.profiles import (
    ActionProfile,
    AtomicOperationCost,
    AttributeSpec,
    CostTable,
    DeviceCatalog,
    OperationRef,
)
from repro.profiles.action_profile import seq


# ----------------------------------------------------------------------
# 1. The device simulator
# ----------------------------------------------------------------------

class DoorLock(Device):
    """A remotely controllable electronic door lock."""

    device_type = "doorlock"

    def __init__(self, env, device_id, location, *, door_name: str):
        super().__init__(env, device_id, location)
        self.door_name = door_name
        self.engaged = False
        #: Deadbolt travel takes longer when the mechanism is cold.
        self.mechanism_temperature = 20.0

    def static_attributes(self) -> Dict[str, Any]:
        row = super().static_attributes()
        row["door_name"] = self.door_name
        return row

    def read_sensory(self, name: str) -> Any:
        if name == "engaged":
            return self.engaged
        if name == "mech_temp":
            return self.mechanism_temperature
        return super().read_sensory(name)

    def physical_status(self) -> Dict[str, float]:
        return {"engaged": 1.0 if self.engaged else 0.0,
                "mech_temp": self.mechanism_temperature}

    def operation_names(self):
        return ("connect", "engage_bolt", "release_bolt")

    def op_connect(self) -> Generator:
        yield self.env.timeout(0.05)

    def op_engage_bolt(self) -> Generator:
        # Cold mechanisms are slower: 0.5 s base + up to 0.5 s penalty.
        penalty = max(0.0, (20.0 - self.mechanism_temperature) / 40.0)
        yield self.env.timeout(0.5 + penalty)
        self.engaged = True
        self.mechanism_temperature += 1.0  # actuation warms the motor

    def op_release_bolt(self) -> Generator:
        yield self.env.timeout(0.4)
        self.engaged = False


# ----------------------------------------------------------------------
# 2. Profiles: catalog + cost table
# ----------------------------------------------------------------------

def doorlock_catalog() -> DeviceCatalog:
    return DeviceCatalog(
        device_type="doorlock",
        model="ACME BoltMaster 3000",
        attributes=[
            AttributeSpec("id", "str", sensory=False),
            AttributeSpec("door_name", "str", sensory=False),
            AttributeSpec("loc_x", "float", sensory=False, unit="m"),
            AttributeSpec("loc_y", "float", sensory=False, unit="m"),
            AttributeSpec("engaged", "bool", sensory=True,
                          acquisition_method="read_engaged"),
            AttributeSpec("mech_temp", "float", sensory=True, unit="C",
                          acquisition_method="read_mech_temp"),
        ],
    )


def doorlock_cost_table() -> CostTable:
    return CostTable.from_operations("doorlock", [
        AtomicOperationCost("connect", fixed_seconds=0.05),
        AtomicOperationCost("engage_bolt", fixed_seconds=0.5,
                            per_unit_seconds=0.0125, unit="cold_degrees",
                            description="deadbolt travel, slower when cold"),
        AtomicOperationCost("release_bolt", fixed_seconds=0.4),
    ])


# ----------------------------------------------------------------------
# 4. The lockdown() user-defined action
# ----------------------------------------------------------------------

def lockdown_impl(device: Device, args) -> Generator:
    yield from device.execute("connect")
    outcome = yield from device.execute("engage_bolt")
    return outcome


def lockdown_profile() -> ActionProfile:
    return ActionProfile(
        action_name="lockdown",
        device_type="doorlock",
        composition=seq(
            OperationRef("connect"),
            OperationRef("engage_bolt", quantity="cold_degrees"),
        ),
        status_fields=["mech_temp"],
    )


def lockdown_resolver(device, status, args):
    cold = max(0.0, 20.0 - status["mech_temp"])
    post = dict(status)
    post["engaged"] = 1.0
    post["mech_temp"] = status["mech_temp"] + 1.0
    return {"cold_degrees": cold}, post


def main() -> None:
    env = Environment()
    # 3. A link model for the lock's medium.
    links = dict(DEFAULT_LINKS)
    links["doorlock"] = LinkModel(latency_seconds=0.04,
                                  jitter_seconds=0.01, loss_rate=0.01)
    engine = AortaEngine(env, links=links)

    # Register the new device type with the communication layer —
    # exactly what register_builtin_types does for the three paper
    # types. The schema catalog, cost model and prober read the layer's
    # profiles in place, so this one call makes "doorlock" a queryable,
    # costable and probe-able table.
    engine.comm.register_device_type(doorlock_catalog(),
                                     doorlock_cost_table(),
                                     probe_timeout=0.8)

    # The building: four doors, one intrusion sensor.
    for i, (x, name) in enumerate([(0, "front"), (10, "lab"),
                                   (20, "server_room"), (30, "rear")]):
        engine.add_device(DoorLock(env, f"lock{i + 1}", Point(x, 0),
                                   door_name=name))
    window = SensorMote(env, "window1", Point(12, 5), noise_amplitude=0.0)
    engine.add_device(window)

    # 5. CREATE ACTION + an AQ over the new table.
    engine.install_action_code("lib/users/lockdown.dll", lockdown_impl)
    # select_all: unlike photo() (one best camera suffices), a lockdown
    # must run on EVERY candidate door.
    engine.install_action_profile("profiles/users/lockdown.xml",
                                  lockdown_profile(), lockdown_resolver,
                                  device_parameters={"lock_id": "id"},
                                  select_all=True)
    engine.execute('''CREATE ACTION lockdown(String lock_id)
        AS "lib/users/lockdown.dll" PROFILE "profiles/users/lockdown.xml"''')
    engine.execute('''CREATE AQ intrusion_lockdown AS
        SELECT lockdown(d.id)
        FROM sensor s, doorlock d
        WHERE s.accel_x > 600 AND distance(d.loc, s.loc) < 15''')

    print("Virtual doorlock table before the intrusion:")
    for row in engine.run_select(
            "SELECT d.id, d.door_name, d.engaged FROM doorlock d"):
        print(f"  {row}")

    # Glass breaks at t = 5 s.
    window.inject(SensorStimulus("accel_x", start=5.0, duration=3.0,
                                 magnitude=900.0))
    engine.start()
    engine.run(until=30.0)

    print("\nAfter the intrusion event:")
    for device in engine.comm.registry.of_type("doorlock"):
        state = "ENGAGED" if device.engaged else "open"
        print(f"  {device.door_name:12s} {state}")
    serviced = [r for r in engine.completed_requests
                if r.state.value == "serviced"]
    print(f"\n{len(serviced)} lockdown action(s) serviced; doors within "
          f"15 m of the window are bolted, the rest stay open.")


if __name__ == "__main__":
    main()
