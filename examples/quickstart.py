"""Quickstart: bring up a UStore deploy unit, allocate and use storage.

Builds the paper's 16-disk / 4-host prototype entirely in simulation,
waits for the control plane to settle (coordination leader, active
master, boot enumeration), then walks the basic ClientLib flow:
allocate a space, mount it, do block I/O, look up its serving host.

Run:  python examples/quickstart.py
"""

from repro.cluster import build_deployment
from repro.units import MiB


def main() -> None:
    print("Building the 16-disk / 4-host prototype deploy unit...")
    deployment = build_deployment()
    deployment.settle(15.0)
    sim = deployment.sim

    master = deployment.active_master()
    print(f"Active master: {master.address}")
    print(f"Hosts online:  {master.sysstat.online_hosts()}")
    print("Disk attachment:")
    for host in deployment.fabric.hosts():
        disks = master.sysstat.disks_on_host(host)
        print(f"  {host}: {', '.join(disks)}")

    client = deployment.new_client("quickstart-app", service="demo")

    def scenario():
        print("\nAllocating a 256 MiB space...")
        info = yield from client.allocate(256 * MiB)
        print(f"  space id: {info['space_id']}")
        print(f"  served by {info['host_id']} as target {info['target']}")

        space = yield from client.mount(info["space_id"])
        print("\nMounted; writing 16 MiB then reading it back...")
        for i in range(4):
            yield from space.write(i * 4 * MiB, 4 * MiB)
        result = yield from space.read(0, 4 * MiB)
        print(f"  read ok, backend service time {result['service_time'] * 1e3:.1f} ms")

        host = yield from client.lookup_host(info["space_id"])
        print(f"\nDirectory lookup: {info['space_id']} -> {host}")

        print("Releasing the space back to the pool...")
        yield from client.release(info["space_id"])

    sim.run_until_event(sim.process(scenario()))
    print(f"\nDone at simulated t={sim.now:.1f}s. "
          f"Client stats: {client.mounted or 'no residual mounts'}")


if __name__ == "__main__":
    main()
