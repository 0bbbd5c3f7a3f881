"""Mini-HDFS client: streaming writes with pipeline recovery.

Reproduces the client behaviour the paper relies on in §VII-B: when a
packet ack fails (a datanode stalled because its UStore disk was
switched away), the client retries, excluding the slow node only after
repeated failures — so a disk switch appears as a few seconds of error
and the write then resumes.  Reads simply pick another replica, so they
are not interrupted at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.net.network import Network
from repro.net.rpc import RemoteError, RpcClient, RpcTimeout
from repro.sim import Event, Simulator
from repro.units import MiB

__all__ = ["HdfsClient", "WriteReport"]

BLOCK_SIZE = 64 * MiB
PACKET_SIZE = 4 * MiB
#: Seconds a packet (or a read of one) waits for its ack.
PACKET_TIMEOUT = 3.0
#: Failed packets in a row before the client drops the pipeline's head.
MAX_RETRIES_PER_PIPELINE = 2


@dataclass
class WriteReport:
    """What the client observed while writing a file."""

    path: str
    bytes_written: int = 0
    packets: int = 0
    errors: int = 0
    stall_seconds: float = 0.0
    longest_stall: float = 0.0
    pipelines_rebuilt: int = 0
    error_times: List[float] = field(default_factory=list)
    packet_latencies: List[float] = field(default_factory=list)

    @property
    def slowest_packet(self) -> float:
        """Worst client-visible packet time, including retries — the
        §VII-B disruption metric ('error only for several seconds')."""
        return max(self.packet_latencies, default=0.0)


class HdfsClient:
    """Write/read files against the mini-HDFS cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        namenode_address: str = "namenode",
    ):
        self.sim = sim
        self.address = address
        self.namenode_address = namenode_address
        self.rpc = RpcClient(sim, network, address)

    # -- namenode helpers ------------------------------------------------------

    def _nn(self, method: str, *args) -> Generator[Event, None, object]:
        result = yield from self.rpc.call(
            self.namenode_address, method, *args, timeout=5.0
        )
        return result

    # -- write path ---------------------------------------------------------------

    def write_file(self, path: str, size: int) -> Generator[Event, None, WriteReport]:
        """Create ``path`` and stream ``size`` bytes through pipelines."""
        report = WriteReport(path=path)
        yield from self._nn("nn.create", path)
        remaining = size
        while remaining > 0:
            block_bytes = min(BLOCK_SIZE, remaining)
            yield from self._write_block(path, block_bytes, report)
            remaining -= block_bytes
        return report

    def _write_block(
        self, path: str, block_bytes: int, report: WriteReport
    ) -> Generator[Event, None, None]:
        exclude: List[str] = []
        grant = yield from self._nn("nn.add_block", path, exclude)
        pipeline = grant["pipeline"]
        block_id = grant["block_id"]
        offset = 0
        consecutive_failures = 0
        packet_start = self.sim.now
        while offset < block_bytes:
            size = min(PACKET_SIZE, block_bytes - offset)
            head, rest = pipeline[0], pipeline[1:]
            attempt_start = self.sim.now
            try:
                reply = yield from self.rpc.call(
                    head["address"],
                    "dn.write_packet",
                    block_id,
                    offset,
                    size,
                    BLOCK_SIZE,
                    rest,
                    timeout=PACKET_TIMEOUT,
                    request_size=size + 256,
                )
                offset += size
                report.bytes_written += size
                report.packets += 1
                report.packet_latencies.append(self.sim.now - packet_start)
                packet_start = self.sim.now
                consecutive_failures = 0
            except (RpcTimeout, RemoteError):
                stall = self.sim.now - attempt_start
                report.errors += 1
                report.error_times.append(attempt_start)
                report.stall_seconds += stall
                report.longest_stall = max(report.longest_stall, stall)
                consecutive_failures += 1
                if consecutive_failures > MAX_RETRIES_PER_PIPELINE and len(pipeline) > 1:
                    # Drop the unresponsive head and continue with the
                    # remaining replicas (HDFS pipeline recovery).
                    pipeline = pipeline[1:]
                    report.pipelines_rebuilt += 1
                    consecutive_failures = 0
        replicas = [stage["dn_id"] for stage in pipeline]
        yield from self._nn("nn.commit_block", block_id, block_bytes, replicas)

    # -- read path -----------------------------------------------------------------

    def read_file(self, path: str) -> Generator[Event, None, dict]:
        """Read every block, preferring the first reachable replica."""
        blocks = yield from self._nn("nn.locate", path)
        bytes_read = 0
        replica_switches = 0
        for block in blocks:
            offset = 0
            while offset < block["size"]:
                size = min(PACKET_SIZE, block["size"] - offset)
                done = False
                for index, replica in enumerate(block["replicas"]):
                    try:
                        yield from self.rpc.call(
                            replica["address"],
                            "dn.read",
                            block["block_id"],
                            offset,
                            size,
                            timeout=PACKET_TIMEOUT,
                            response_size=size + 256,
                        )
                        done = True
                        if index > 0:
                            replica_switches += 1
                        break
                    except (RpcTimeout, RemoteError):
                        continue
                if not done:
                    raise RuntimeError(
                        f"no replica served {block['block_id']} @ {offset}"
                    )
                offset += size
                bytes_read += size
        return {"bytes_read": bytes_read, "replica_switches": replica_switches}
