"""A deduplicating backup service on UStore (Venti-style overlay).

Seven nightly backup rounds of a mutating dataset: the first round
writes everything, later rounds write only changed chunks.  Shows the
dedup ratio, per-round write time, and a restore — the archival usage
the paper's introduction motivates.

Run:  python examples/backup_service.py
"""

from repro.backup import BackupService, provision_archive, synthetic_dataset
from repro.cluster import build_deployment
from repro.sim import RngRegistry
from repro.units import MiB


def main() -> None:
    deployment = build_deployment()
    deployment.settle(15.0)
    sim = deployment.sim

    print("Provisioning two UStore spaces for the archive store...")
    store = sim.run_until_event(
        sim.process(provision_archive(deployment, num_spaces=2, space_bytes=4096 * MiB))
    )

    rng = RngRegistry(2026)
    service = BackupService(deployment, store, rng, change_fraction=0.12)
    dataset = synthetic_dataset(rng, num_files=60, mean_file_mib=8.0)
    service.load_dataset(dataset)
    logical_mib = sum(f.size for f in dataset) / MiB
    print(f"Dataset: {len(dataset)} files, {logical_mib:.0f} MiB logical\n")

    # Narratively these are nightly rounds; the inter-round gap is
    # compressed to 10 simulated minutes because the idle control plane
    # (heartbeats, elections) dominates event count, not the backups.
    def run():
        return (yield from service.run_rounds(7, interval_seconds=600.0))

    rounds = sim.run_until_event(sim.process(run()))

    print(f"{'snapshot':<10} {'logical MiB':>12} {'written MiB':>12} "
          f"{'dedup':>7} {'write s':>8}")
    for stats in rounds:
        dedup = "inf" if stats.unique_bytes == 0 else f"{stats.dedup_ratio:5.1f}x"
        print(
            f"{stats.snapshot_id:<10} {stats.logical_bytes / MiB:>12.0f} "
            f"{stats.unique_bytes / MiB:>12.0f} {dedup:>7} "
            f"{stats.write_seconds:>8.1f}"
        )

    total_logical = sum(s.logical_bytes for s in rounds) / MiB
    print(f"\nTotal: {total_logical:.0f} MiB logical stored as "
          f"{store.stored_bytes / MiB:.0f} MiB on disk "
          f"({total_logical / (store.stored_bytes / MiB):.1f}x overall dedup)")

    def restore():
        return (yield from store.restore(rounds[-1].snapshot_id))

    result = sim.run_until_event(sim.process(restore()))
    rate = result["bytes_restored"] / MiB / result["seconds"]
    print(f"Restore of the last snapshot: {result['bytes_restored'] / MiB:.0f} MiB "
          f"in {result['seconds']:.1f}s ({rate:.0f} MiB/s)")


if __name__ == "__main__":
    main()
