"""Experiment: Figure 6 — switching time vs number of disks switched.

Switches N disks from their current hosts to one target host in a
single Master command and decomposes the delay the way the paper does:

* **part 1** — disk safely rejected from the old host → recognized by
  the new host's USB driver (grows with N: enumeration serializes);
* **part 2** — recognized → exposed on the network as an iSCSI target;
* **part 3** — exposed → remounted by the ClientLib.

Each disk count is repeated ``repetitions`` times (the paper uses 6) with
different seeds; a ClientLib with a polling reader is mounted on one of
the switched disks so the remount is observed end to end.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.cluster.namespace import target_name
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import conflict_free_batch, format_table
from repro.net.rpc import RpcClient
from repro.obs import MetricsRegistry
from repro.sim import Event, Interrupt
from repro.units import KiB, MiB

__all__ = ["DISK_COUNTS", "EXPERIMENT", "run_single"]

DISK_COUNTS = (1, 2, 4, 6, 8)
TARGET_HOST = "host3"


def run_single(
    count: int, seed: int, metrics: Optional[MetricsRegistry] = None
) -> Dict[str, float]:
    """One switching trial; returns the three delay parts (seconds)."""
    deployment = build_deployment(
        config=DeploymentConfig(seed=seed), metrics=metrics
    )
    deployment.settle(15.0)
    sim = deployment.sim
    fabric = deployment.fabric

    batch = conflict_free_batch(fabric, TARGET_HOST, count)
    monitored_disk = batch[0][0]
    other_disks = [d.node_id for d in fabric.disks if d.node_id != monitored_disk]

    client = deployment.new_client("fig6-client", service="fig6")
    remount_times: List[float] = []
    client.on_status_change(
        lambda sid, ev: remount_times.append(sim.now) if ev == "remounted" else None
    )

    def setup() -> Generator[Event, None, object]:
        info = yield from client.allocate(64 * MiB, exclude_disks=other_disks)
        space = yield from client.mount(info["space_id"])
        return info, space

    info, space = sim.run_until_event(sim.process(setup()))
    assert info["space_id"].split("/")[2] == monitored_disk
    deployment.run_to_whole_second()

    # Polling reader: keeps the mount actively used so the remount is
    # triggered as soon as the session breaks.
    def reader() -> Generator[Event, None, None]:
        while True:
            try:
                yield from space.read(0, 4 * KiB)
            except Interrupt:
                raise  # kernel teardown must not be treated as a session error
            except Exception:
                return
            yield sim.timeout(0.25)

    sim.process(reader())
    sim.run(until=sim.now + 2.0)

    rpc = RpcClient(sim, deployment.network, "fig6-op")
    master = deployment.active_master().address
    start = sim.now
    event_floor = len(deployment.bus.events)

    def migrate() -> Generator[Event, None, object]:
        result = yield from rpc.call(
            master, "master.migrate_batch", batch, timeout=90.0
        )
        return result

    sim.run_until_event(sim.process(migrate()))
    sim.run(until=sim.now + 10.0)  # let the remount land

    events = deployment.bus.events[event_floor:]
    detach_at: Dict[str, float] = {}
    attach_at: Dict[str, float] = {}
    for event in events:
        if event.kind == "detach" and event.disk_id in dict(batch):
            detach_at.setdefault(event.disk_id, event.time)
        if (
            event.kind == "attach"
            and event.host_id == TARGET_HOST
            and event.disk_id in dict(batch)
        ):
            attach_at.setdefault(event.disk_id, event.time)

    part1 = max(attach_at[d] - detach_at[d] for d, _ in batch)
    endpoint = deployment.endpoints[TARGET_HOST]
    expose_time: Optional[float] = None
    wanted_target = target_name(info["space_id"])
    for time, name in endpoint.expose_log:
        if name == wanted_target and time >= start:
            expose_time = time
            break
    if expose_time is None:
        raise RuntimeError("monitored target never re-exposed")
    part2 = expose_time - attach_at[monitored_disk]
    if not remount_times:
        raise RuntimeError("remount never observed")
    part3 = remount_times[-1] - expose_time
    return {
        "count": count,
        "part1": part1,
        "part2": max(0.0, part2),
        "part3": max(0.0, part3),
        "total": part1 + max(0.0, part2) + max(0.0, part3),
    }


def _build_result(repetitions: int) -> ExperimentResult:
    registry = MetricsRegistry()
    rows: List[List] = []
    series: Dict[int, Dict[str, float]] = {}
    for count in DISK_COUNTS:
        trials = [
            run_single(count, seed=100 * count + r, metrics=registry)
            for r in range(repetitions)
        ]
        mean = {
            key: sum(t[key] for t in trials) / len(trials)
            for key in ("part1", "part2", "part3", "total")
        }
        series[count] = mean
        rows.append(
            [
                count,
                round(mean["part1"], 2),
                round(mean["part2"], 2),
                round(mean["part3"], 2),
                round(mean["total"], 2),
            ]
        )
    part1s = [series[c]["part1"] for c in DISK_COUNTS]
    anchors = {
        # Paper: "the first part delay increases with the number of
        # switched disks while the second and third parts have little
        # variation."
        "part1_grows_with_count": all(
            part1s[i] < part1s[i + 1] for i in range(len(part1s) - 1)
        ),
        "part2_stable": max(series[c]["part2"] for c in DISK_COUNTS)
        - min(series[c]["part2"] for c in DISK_COUNTS)
        < 1.0,
        "part3_stable": max(series[c]["part3"] for c in DISK_COUNTS)
        - min(series[c]["part3"] for c in DISK_COUNTS)
        < 1.0,
    }
    raw = {
        "headers": ["Disks", "Part1 s", "Part2 s", "Part3 s", "Total s"],
        "rows": rows,
        "series": series,
        "anchors": anchors,
    }
    return ExperimentResult(
        metrics={
            "mean_total_seconds": {str(c): series[c]["total"] for c in series}
        },
        paper_expected={
            "part1_grows_with_count": True,
            "part2_and_part3_stable": True,
        },
        anchors=dict(anchors),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Figure 6: switching time decomposition (mean of repetitions)", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    lines.append("")
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="figure6",
    paper_ref="Figure 6 / §VII-A",
    description="Switching-time decomposition vs number of disks switched",
    builder=_build_result,
    params={"repetitions": 6},
)
