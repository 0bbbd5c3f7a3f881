"""Failover drill: kill a host mid-I/O and watch UStore heal itself.

A client writes continuously to a space.  We crash the host serving
that space; the Master detects the silence through missed heartbeats,
commands the Controller to switch the orphaned disks to healthy hosts
(Algorithm 1 through the XOR-ed microcontrollers), re-exposes the
targets, and the ClientLib remounts automatically.  The client observes
one slow write — the paper's ~5.8-second recovery — not an outage.

Run:  python examples/failover_drill.py
"""

from repro.cluster import build_deployment
from repro.units import MiB


def main() -> None:
    deployment = build_deployment()
    deployment.settle(15.0)
    sim = deployment.sim
    client = deployment.new_client("drill-app", service="drill")
    client.on_status_change(
        lambda sid, event: print(f"  [{sim.now:8.2f}s] ClientLib: {sid} {event}")
    )

    state = {}

    def setup():
        info = yield from client.allocate(512 * MiB)
        space = yield from client.mount(info["space_id"])
        state["info"], state["space"] = info, space
        print(f"Space {info['space_id']} served by {info['host_id']}")

    sim.run_until_event(sim.process(setup()))
    victim = state["info"]["host_id"]
    space = state["space"]

    def writer():
        offset = 0
        for i in range(60):
            start = sim.now
            yield from space.write(offset, 4 * MiB)
            elapsed = sim.now - start
            marker = "   <-- slow (failover window)" if elapsed > 1.0 else ""
            if i % 10 == 0 or elapsed > 1.0:
                print(f"  [{sim.now:8.2f}s] write {i:2d} took {elapsed:6.3f}s{marker}")
            offset += 4 * MiB
            yield sim.timeout(0.25)  # paced archival stream

    def assassin():
        yield sim.timeout(4.0)
        print(f"  [{sim.now:8.2f}s] !!! crashing {victim}")
        deployment.crash_host(victim)

    writer_proc = sim.process(writer())
    sim.process(assassin())
    sim.run_until_event(writer_proc)

    master = deployment.active_master()
    print(f"\nAll writes completed. Failovers: {master.failovers_completed}")
    print(f"Space now served by {space.current_host} "
          f"(remounts: {space.stats.remounts})")
    stranded = [d for d, h in deployment.fabric.attachment_map().items() if h == victim]
    print(f"Disks still stranded on {victim}: {len(stranded)}")


if __name__ == "__main__":
    main()
