"""Erasure-coded storage on UStore: RS(4+2) striping, failure, repair.

UStore "delegates data recovery of failed disks to the data redundancy
mechanisms supported by upper layer services" (§IV-E).  This example is
that upper layer: a real Reed-Solomon code (GF(2^8), Cauchy parity)
stripes objects across six UStore spaces on six different spindles.
A disk failure degrades reads (decode from any 4 of 6 shards), and
``repair`` rebuilds the lost shard onto a freshly allocated space.

Run:  python examples/erasure_coding.py
"""

from repro.cluster import build_deployment
from repro.cluster.namespace import parse_space_id
from repro.ec import RSCode, StripedStore
from repro.faults import FaultInjector
from repro.units import MiB


def main() -> None:
    dep = build_deployment()
    dep.settle(15.0)
    sim = dep.sim
    # An EC layer wants shard reads to fail fast: with parity available
    # there is no point waiting a full remount deadline on a dead shard.
    client = dep.new_client(
        "ec-app",
        service="ec-demo",
        max_remount_attempts=1,
        remount_deadline=4.0,
        io_timeout=2.0,
    )

    print("Provisioning 6 spaces on 6 distinct spindles for RS(4+2)...")
    spaces, used_disks = [], []

    def provision():
        for _ in range(6):
            info = yield from client.allocate(512 * MiB, exclude_disks=used_disks)
            used_disks.append(parse_space_id(info["space_id"])[1])
            space = yield from client.mount(info["space_id"])
            spaces.append(space)

    sim.run_until_event(sim.process(provision()))
    for index, disk in enumerate(used_disks):
        print(f"  shard {index}: {disk} on {dep.fabric.attached_host(disk)}")

    store = StripedStore(
        sim=sim, code=RSCode(4, 2), spaces=spaces, space_bytes=512 * MiB
    )
    payload = bytes(i % 256 for i in range(8 * MiB))

    def write_and_read():
        yield from store.put("dataset.bin", payload)
        data = yield from store.get("dataset.bin")
        assert data == payload

    sim.run_until_event(sim.process(write_and_read()))
    print(f"\nStored and verified {len(payload) // MiB} MiB as 4+2 shards "
          f"(storage overhead {6 / 4:.2f}x vs 3x for replication).")

    victim = used_disks[0]
    print(f"\nFailing {victim} (shard 0)...")
    FaultInjector(dep).fail_disk(victim)
    dep.settle(5.0)

    def degraded_read():
        start = sim.now
        data = yield from store.get("dataset.bin")
        assert data == payload
        return sim.now - start

    elapsed = sim.run_until_event(sim.process(degraded_read()))
    print(f"  degraded read OK in {elapsed:.1f}s "
          f"(decoded from parity; degraded reads: {store.degraded_reads})")

    print("\nRepairing shard 0 onto a replacement space...")

    def repair():
        info = yield from client.allocate(512 * MiB, exclude_disks=used_disks)
        replacement = yield from client.mount(info["space_id"])
        rebuilt = yield from store.repair(0, replacement)
        data = yield from store.get("dataset.bin")
        assert data == payload
        return rebuilt, parse_space_id(info["space_id"])[1]

    rebuilt, new_disk = sim.run_until_event(sim.process(repair()))
    print(f"  rebuilt {rebuilt} shard(s) onto {new_disk}; "
          f"reads are clean again.")


if __name__ == "__main__":
    main()
