"""Capacity planning with the cost and fabric models (§V-A, §VI).

Answers the questions an operator would ask before adopting UStore:

* what does a 10 PB deployment cost, versus the alternatives?
* how does the per-disk attach cost change with unit size?
* does a proposed fabric design respect USB constraints?

Run:  python examples/capacity_planning.py
"""

from repro.cost import render_cost_table, ustore_estimate
from repro.cost.systems import DISK_CAPACITY_BYTES, SATA_DISK_PRICE, TARGET_CAPACITY_BYTES
from repro.fabric import dual_tree_fabric, ring_fabric, validate_fabric
from repro.units import TB


def main() -> None:
    print("=" * 64)
    print("Table I: 10 PB raw capacity, five solutions")
    print("=" * 64)
    print(render_cost_table())

    print()
    print("UStore BOM detail:")
    print(ustore_estimate().bom.render())

    print()
    print("=" * 64)
    print("Fabric design validation")
    print("=" * 64)
    designs = {
        "prototype ring (16 disks / 4 hosts)": ring_fabric(
            num_hosts=4, disks_per_leaf=2, fan_in=4
        ),
        "deploy unit ring (64 disks / 4 hosts)": ring_fabric(
            num_hosts=4, disks_per_leaf=8, fan_in=16
        ),
        "dual-tree (16 disks / 2 hosts)": dual_tree_fabric(
            num_disks=16, num_hosts=2, fan_in=4
        ),
    }
    for name, fabric in designs.items():
        report = validate_fabric(fabric)
        quirk = validate_fabric(fabric, enforce_intel_quirk=True)
        worst = max(report.worst_case_devices_per_port.values())
        print(f"\n  {name}")
        print(f"    structurally valid: {report.ok}  "
              f"hub depth: {report.max_hub_depth}/5  "
              f"worst devices/port: {worst}/127")
        print(f"    hubs: {len(fabric.hubs)}  switches: {len(fabric.switches)}  "
              f"full host reachability: {report.min_reachable_hosts} hosts/disk")
        if quirk.warnings:
            print(f"    note: {quirk.warnings[0]}")

    print()
    print("=" * 64)
    print("Scaling: how many units and disks for common targets")
    print("=" * 64)
    for petabytes in (1, 10, 50):
        capacity = petabytes * 1000 * TB
        disks = -(-capacity // DISK_CAPACITY_BYTES)  # ceil
        units = -(-disks // 64)
        media = disks * SATA_DISK_PRICE / 1e6
        print(f"  {petabytes:>3} PB: {units:>4} deploy units, {disks:>6} disks, "
              f"${media:.2f}M in media")


if __name__ == "__main__":
    main()
