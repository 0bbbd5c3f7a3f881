"""Fleet operations: two deploy units, one Master, live dashboard.

Shows the §IV deployment shape — "one Master and a number of deploy
units" — with allocation steered across units, a host failure in one
unit (which must not disturb the other), and the operator dashboard
after each step.

Run:  python examples/fleet_operations.py
"""

from repro.cluster import DeploymentConfig, build_deployment
from repro.monitor import render_dashboard, snapshot
from repro.units import MiB


def main() -> None:
    print("Building two prototype deploy units under one Master...")
    fleet = build_deployment(config=DeploymentConfig(units=2))
    fleet.settle(15.0)
    sim = fleet.sim

    print()
    print(render_dashboard(snapshot(fleet)))

    print("\nAllocating one space per service, one service per unit...")
    # Distinct services: same-service disk affinity (§IV-A rule 1)
    # outranks locality, so a shared service would pile onto one disk.
    clients = {
        "unit0": fleet.new_client("web-archive-app", service="web-archive"),
        "unit1": fleet.new_client("log-archive-app", service="log-archive"),
    }
    spaces = {}

    def allocate():
        for unit, host in (("unit0", "unit0.host1"), ("unit1", "unit1.host2")):
            client = clients[unit]
            info = yield from client.allocate(128 * MiB, locality_hint=host)
            space = yield from client.mount(info["space_id"])
            yield from space.write(0, 4 * MiB)
            spaces[unit] = (info, space)
            print(f"  {unit}: {info['space_id']} on {info['host_id']}")

    sim.run_until_event(sim.process(allocate()))

    victim = "unit0.host1"
    print(f"\nCrashing {victim} — unit1 must not notice...")
    fleet.crash_host(victim)
    fleet.settle(15.0)

    def verify():
        for unit, (info, space) in spaces.items():
            start = sim.now
            yield from space.read(0, 4 * MiB)
            print(f"  {unit}: read ok in {sim.now - start:.2f}s "
                  f"(now on {space.current_host})")

    sim.run_until_event(sim.process(verify()))

    print()
    print(render_dashboard(snapshot(fleet)))
    master = fleet.active_master()
    print(f"\nFailovers completed: {master.failovers_completed} "
          f"(unit1 untouched: its disks never moved)")


if __name__ == "__main__":
    main()
