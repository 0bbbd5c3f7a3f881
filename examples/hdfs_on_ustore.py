"""HDFS on UStore: the paper's §VII-B overlay experiment, end to end.

One namenode and three datanodes run on the prototype's hosts; each
datanode stores its blocks on a UStore space (a remotely attached block
device via the ClientLib).  While a client streams a 192 MiB file into
HDFS with 3-way replication, the Master switches one datanode's backing
disk to a different host.  The write sees a seconds-long hiccup and
resumes; a subsequent read is not interrupted at all.

Run:  python examples/hdfs_on_ustore.py
"""

from repro.cluster import build_deployment
from repro.fabric import SwitchConflict, plan_switches
from repro.hdfs import build_hdfs_on_ustore
from repro.net import RpcClient
from repro.units import MiB


def pick_target(fabric, disk: str) -> str:
    current = fabric.attached_host(disk)
    for host in fabric.reachable_hosts(disk):
        if host == current:
            continue
        try:
            plan_switches(fabric, [(disk, host)])
            return host
        except SwitchConflict:
            continue
    raise RuntimeError("no conflict-free target")


def main() -> None:
    deployment = build_deployment()
    deployment.settle(15.0)
    sim = deployment.sim

    print("Starting mini-HDFS on the UStore prototype...")
    hdfs = sim.run_until_event(sim.process(build_hdfs_on_ustore(deployment)))
    deployment.settle(3.0)
    for dn_id in sorted(hdfs.datanodes):
        disk = hdfs.backing_disk_of(dn_id)
        print(f"  {dn_id}: backed by {disk} on {deployment.fabric.attached_host(disk)}")

    client = hdfs.new_client("hdfs-app")
    disk = hdfs.backing_disk_of("dn0")
    target = pick_target(deployment.fabric, disk)
    source = deployment.fabric.attached_host(disk)
    master = deployment.active_master().address
    rpc = RpcClient(sim, deployment.network, "operator")

    def migrate():
        yield sim.timeout(5.0)
        print(f"  [{sim.now:7.2f}s] switching {disk}: {source} -> {target}")
        yield from rpc.call(master, "master.migrate_disk", disk, target, timeout=60.0)
        print(f"  [{sim.now:7.2f}s] switch complete")

    sim.process(migrate())

    print("\nWriting a 192 MiB file with 3-way replication...")
    start = sim.now

    def write():
        return (yield from client.write_file("/demo/archive.bin", 192 * MiB))

    report = sim.run_until_event(sim.process(write()))
    print(f"  wrote {report.bytes_written // MiB} MiB in {sim.now - start:.1f}s")
    print(f"  client-visible errors: {report.errors}, "
          f"slowest packet {report.slowest_packet:.2f}s, "
          f"pipelines rebuilt: {report.pipelines_rebuilt}")

    print("\nReading the file back (replicas cover any further switches)...")
    start = sim.now

    def read():
        return (yield from client.read_file("/demo/archive.bin"))

    result = sim.run_until_event(sim.process(read()))
    print(f"  read {result['bytes_read'] // MiB} MiB in {sim.now - start:.1f}s "
          f"({result['replica_switches']} replica switches)")

    print(f"\n{disk} is now served by {deployment.fabric.attached_host(disk)} — "
          "the switch looked like a transient hiccup, not a rebuild.")


if __name__ == "__main__":
    main()
