"""Experiment: §VII-B — HDFS on UStore across a disk switch.

Deployment mirrors the paper: four prototype hosts, one namenode and
three datanodes, three replicas, UStore disks as datanode storage.
While a client streams a file into HDFS, one datanode's backing disk is
switched to another host.  Expected observations:

* the write sees a transient, seconds-long disruption (an error and
  retry, or one slow packet) and then resumes — no rebuild;
* reads are not interrupted at all, because replicas cover the gap.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.cluster.deployment import build_deployment
from repro.experiments.base import Experiment, ExperimentResult
from repro.fabric.switching import SwitchConflict, plan_switches
from repro.hdfs import build_hdfs_on_ustore
from repro.net.rpc import RpcClient
from repro.obs import MetricsRegistry
from repro.sim import Event
from repro.units import MiB

__all__ = ["EXPERIMENT"]

FILE_BYTES = 192 * MiB
SWITCH_AFTER = 5.0


def _conflict_free_target(fabric, disk: str) -> str:
    current = fabric.attached_host(disk)
    for host in fabric.reachable_hosts(disk):
        if host == current:
            continue
        try:
            plan_switches(fabric, [(disk, host)])
            return host
        except SwitchConflict:
            continue
    raise RuntimeError(f"no conflict-free target for {disk}")


def _build_result() -> ExperimentResult:
    registry = MetricsRegistry()
    deployment = build_deployment(metrics=registry)
    deployment.settle(15.0)
    sim = deployment.sim
    hdfs = sim.run_until_event(sim.process(build_hdfs_on_ustore(deployment)))
    deployment.settle(3.0)
    deployment.run_to_whole_second()

    client = hdfs.new_client("hdfs-app")
    disk = hdfs.backing_disk_of("dn0")
    source = deployment.fabric.attached_host(disk)
    target = _conflict_free_target(deployment.fabric, disk)
    master = deployment.active_master().address
    rpc = RpcClient(sim, deployment.network, "hdfs-op")
    switch_done = {}

    def migrate() -> Generator[Event, None, None]:
        yield sim.timeout(SWITCH_AFTER)
        yield from rpc.call(master, "master.migrate_disk", disk, target, timeout=60.0)
        switch_done["time"] = sim.now

    sim.process(migrate())

    def write() -> Generator[Event, None, object]:
        report = yield from client.write_file("/paper-file", FILE_BYTES)
        return report

    write_start = sim.now
    report = sim.run_until_event(sim.process(write()))
    write_seconds = sim.now - write_start

    # A second switch during reads: replicas keep serving.
    back_target = source

    def migrate_back() -> Generator[Event, None, None]:
        yield sim.timeout(0.5)
        yield from rpc.call(master, "master.migrate_disk", disk, back_target, timeout=60.0)

    sim.process(migrate_back())

    def read() -> Generator[Event, None, object]:
        result = yield from client.read_file("/paper-file")
        return result

    read_start = sim.now
    read_result = sim.run_until_event(sim.process(read()))
    read_seconds = sim.now - read_start

    median_packet = sorted(report.packet_latencies)[len(report.packet_latencies) // 2]
    raw = {
        "bytes_written": report.bytes_written,
        "write_seconds": write_seconds,
        "client_errors": report.errors,
        "slowest_packet_s": report.slowest_packet,
        "median_packet_s": median_packet,
        "pipelines_rebuilt": report.pipelines_rebuilt,
        "bytes_read": read_result["bytes_read"],
        "read_seconds": read_seconds,
        "read_replica_switches": read_result["replica_switches"],
        "switched_disk": disk,
        "switch_path": (source, target),
        "anchors": {
            # "the HDFS client encounters error only for several
            # seconds, then it resumes the operation again"
            "disruption_is_seconds_not_minutes": report.slowest_packet < 15.0,
            "write_completes": report.bytes_written == FILE_BYTES,
            # "Read operation is not interrupted at all since there are
            # three replicas."
            "read_uninterrupted": read_result["bytes_read"] == FILE_BYTES,
        },
    }
    return ExperimentResult(
        metrics={
            "write_seconds": write_seconds,
            "slowest_packet_s": report.slowest_packet,
            "read_seconds": read_seconds,
            "pipelines_rebuilt": report.pipelines_rebuilt,
        },
        paper_expected={
            "disruption": "seconds-long error window, then resume",
            "reads": "not interrupted (three replicas)",
        },
        anchors=dict(raw["anchors"]),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = [
        "HDFS-on-UStore disk switch (paper §VII-B)",
        "",
        f"  wrote {result['bytes_written'] / MiB:.0f} MiB in {result['write_seconds']:.1f}s "
        f"while switching {result['switched_disk']} "
        f"{result['switch_path'][0]} -> {result['switch_path'][1]}",
        f"  client errors: {result['client_errors']}, slowest packet "
        f"{result['slowest_packet_s']:.2f}s (median {result['median_packet_s']:.3f}s), "
        f"pipelines rebuilt: {result['pipelines_rebuilt']}",
        f"  read back {result['bytes_read'] / MiB:.0f} MiB in {result['read_seconds']:.1f}s "
        f"with {result['read_replica_switches']} replica switch(es)",
        "",
    ]
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="hdfs_switch",
    paper_ref="§VII-B",
    description="HDFS-on-UStore write/read across a live disk switch",
    builder=_build_result,
)
