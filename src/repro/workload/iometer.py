"""An Iometer-like workload driver (§VII-A).

The paper evaluates the prototype with Iometer: one worker per disk,
each issuing I/O of a given transfer size, access pattern and
read-percentage.  Two drivers are provided:

* :func:`model_throughput` — closed-form: combines the disk service
  model with the fabric fair-share allocator (fast; used by the
  Table II / Figure 5 experiments);
* :class:`IometerRun` — event-driven: actual workers issuing I/O
  against :class:`~repro.disk.device.SimulatedDisk` objects through the
  simulation, with fabric-level rate limiting applied to each transfer.
  Slower but exercises the full code path, including mixed sequences
  and queueing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.disk.device import IoRequest, SimulatedDisk
from repro.disk.model import DiskModel
from repro.fabric.bandwidth import BandwidthModel, Flow
from repro.fabric.topology import Fabric
from repro.obs.metrics import MetricsRegistry
from repro.sim import Event, Simulator
from repro.sim.rng import RngRegistry
from repro.units import GiB
from repro.workload.specs import AccessPattern, WorkloadSpec

__all__ = ["IometerRun", "WorkerStats", "model_throughput"]


def model_throughput(
    fabric: Fabric,
    disk_ids: Sequence[str],
    spec: WorkloadSpec,
    model: Optional[DiskModel] = None,
    duplex_split: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """Closed-form aggregate throughput for one worker per disk.

    Returns ``{"total_bytes_per_second": ..., "per_disk": {...}}``-style
    dict.  With ``duplex_split`` half the workers read and half write
    (the paper's duplex experiment); otherwise each worker carries the
    spec's own mix as a single flow in the majority direction, with a
    50/50 mix modelled as two half-demand flows.
    """
    model = model or DiskModel()
    demand = model.demand_bytes_per_second(spec)
    flows: List[Flow] = []
    for index, disk_id in enumerate(disk_ids):
        if duplex_split:
            flows.append(
                Flow(
                    flow_id=f"{disk_id}:duplex",
                    disk_id=disk_id,
                    demand=demand,
                    is_read=index % 2 == 0,
                    io_size=spec.transfer_size,
                )
            )
        elif 0.0 < spec.read_fraction < 1.0:
            for direction, share in (("r", spec.read_fraction), ("w", 1 - spec.read_fraction)):
                flows.append(
                    Flow(
                        flow_id=f"{disk_id}:{direction}",
                        disk_id=disk_id,
                        demand=demand * share,
                        is_read=direction == "r",
                        io_size=spec.transfer_size,
                    )
                )
        else:
            flows.append(
                Flow(
                    flow_id=f"{disk_id}:flow",
                    disk_id=disk_id,
                    demand=demand,
                    is_read=spec.read_fraction >= 0.5,
                    io_size=spec.transfer_size,
                )
            )
    allocation = BandwidthModel(fabric, metrics=metrics).allocate(flows)
    per_disk: Dict[str, float] = {}
    for flow in flows:
        per_disk[flow.disk_id] = per_disk.get(flow.disk_id, 0.0) + allocation.rate(
            flow.flow_id
        )
    return {
        "total_bytes_per_second": allocation.total(),
        "per_disk": per_disk,
        "spec": spec.name,
    }


@dataclass
class WorkerStats:
    disk_id: str
    completed: int = 0
    bytes_moved: int = 0
    service_times: List[float] = field(default_factory=list)

    def throughput(self, duration: float) -> float:
        return self.bytes_moved / duration if duration > 0 else 0.0


class IometerRun:
    """Event-driven workers, one per disk, running for a fixed duration."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        disks: Dict[str, SimulatedDisk],
        spec: WorkloadSpec,
        disk_ids: Optional[Sequence[str]] = None,
        rng: Optional[RngRegistry] = None,
        region_bytes: int = 64 * GiB,
    ):
        self.sim = sim
        self.fabric = fabric
        self.disks = disks
        self.spec = spec
        self.disk_ids = list(disk_ids if disk_ids is not None else disks)
        self.region_bytes = region_bytes
        self._rng = (rng or RngRegistry(0)).stream("iometer")
        self.stats: Dict[str, WorkerStats] = {}
        self._bandwidth = BandwidthModel(fabric)

    def _fabric_rate(self) -> Dict[str, float]:
        """Current fair-share byte rate per disk for this run's flows."""
        flows = [
            Flow(
                flow_id=d,
                disk_id=d,
                demand=1e12,
                is_read=self.spec.read_fraction >= 0.5,
                io_size=self.spec.transfer_size,
            )
            for d in self.disk_ids
        ]
        allocation = self._bandwidth.allocate(flows)
        return dict(allocation.rates)

    def _worker(self, disk_id: str, stop_at: float) -> Generator[Event, None, None]:
        disk = self.disks[disk_id]
        stats = self.stats[disk_id]
        spec = self.spec
        offset = 0
        ops = 0
        while self.sim.now < stop_at:
            if spec.pattern is AccessPattern.RANDOM:
                blocks = max(1, self.region_bytes // spec.transfer_size)
                offset = self._rng.randrange(blocks) * spec.transfer_size
                sequential = False
            else:
                sequential = True
            if spec.read_fraction >= 1.0:
                is_read = True
            elif spec.read_fraction <= 0.0:
                is_read = False
            else:
                # Deterministic alternation reproduces the mixed-workload
                # turnaround penalties the model charges.
                is_read = ops % 2 == 0
            request = IoRequest(
                offset=offset,
                size=spec.transfer_size,
                is_read=is_read,
                sequential_hint=sequential,
            )
            service = yield disk.submit(request)
            # Fabric-level throttling: if the fair share is below the
            # disk's native rate, pad the transfer accordingly.
            rate = self._rates.get(disk_id, float("inf"))
            native = spec.transfer_size / service if service > 0 else float("inf")
            if rate < native:
                yield self.sim.timeout(spec.transfer_size / rate - service)
            stats.completed += 1
            stats.bytes_moved += spec.transfer_size
            stats.service_times.append(service)
            if sequential:
                offset = (offset + spec.transfer_size) % self.region_bytes
            ops += 1

    def run(self, duration: float) -> Dict[str, float]:
        """Run all workers for ``duration`` simulated seconds."""
        self.stats = {d: WorkerStats(d) for d in self.disk_ids}
        self._rates = self._fabric_rate()
        start = self.sim.now
        stop_at = start + duration
        procs = [self.sim.process(self._worker(d, stop_at)) for d in self.disk_ids]
        gate = self.sim.all_of(procs)
        self.sim.run_until_event(gate)
        elapsed = self.sim.now - start
        total = sum(s.bytes_moved for s in self.stats.values())
        return {
            "total_bytes_per_second": total / elapsed if elapsed else 0.0,
            "per_disk": {
                d: s.throughput(elapsed) for d, s in self.stats.items()
            },
            "total_iops": sum(s.completed for s in self.stats.values()) / elapsed
            if elapsed
            else 0.0,
            "spec": self.spec.name,
        }
