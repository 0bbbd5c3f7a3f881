"""Mini-HDFS datanode storing its blocks on a UStore mounted space.

Exactly the deployment of §VII-B: the datanode process runs on a
UStore host, and its block storage is a UStore space mounted through
the ClientLib.  When the Controller switches the backing disk to
another host, the datanode's I/O stalls for the remount window and then
resumes — which the write pipeline surfaces to the HDFS client as a
transient, seconds-long error.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.cluster.clientlib import ClientLib, MountedSpace, StorageUnavailableError
from repro.net.network import Network
from repro.net.rpc import RemoteError, RpcClient, RpcServer, RpcTimeout
from repro.sim import Event, Simulator

__all__ = ["DataNode"]

#: Seconds between a datanode's heartbeats to the namenode.
HEARTBEAT_INTERVAL = 1.0
#: Seconds a datanode waits for the next pipeline stage's ack.
FORWARD_TIMEOUT = 8.0


class DataNode:
    """One datanode: block store + pipeline forwarding."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        dn_id: str,
        namenode_address: str,
        storage: MountedSpace,
        capacity: int,
    ):
        self.sim = sim
        self.dn_id = dn_id
        self.address = f"dn.{dn_id}"
        self.namenode_address = namenode_address
        self.storage = storage
        self.capacity = capacity
        self.alive = True
        self.network = network
        # Local block map: block id -> (offset, size committed so far).
        self.block_offsets: Dict[str, int] = {}
        self.block_sizes: Dict[str, int] = {}
        self._next_offset = 0
        self.packets_stored = 0
        self.rpc = RpcServer(sim, network, self.address)
        self.rpc_client = RpcClient(sim, network, f"{self.address}.client")
        self.rpc.register("dn.write_packet", self._on_write_packet)
        self.rpc.register("dn.read", self._on_read)
        sim.process(self._register_and_heartbeat())

    def crash(self) -> None:
        self.alive = False
        self.network.set_alive(self.address, False)
        self.network.set_alive(f"{self.address}.client", False)

    def _register_and_heartbeat(self) -> Generator[Event, None, None]:
        while True:
            try:
                yield from self.rpc_client.call(
                    self.namenode_address, "nn.register", self.dn_id, self.address,
                    timeout=2.0,
                )
                break
            except (RpcTimeout, RemoteError):
                yield self.sim.timeout(1.0)
        while self.alive:
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
            try:
                yield from self.rpc_client.call(
                    self.namenode_address, "nn.heartbeat", self.dn_id, timeout=2.0
                )
            except (RpcTimeout, RemoteError):
                continue

    # -- block placement within the mounted space ---------------------------

    def _offset_for(self, block_id: str, block_capacity: int) -> int:
        if block_id not in self.block_offsets:
            if self._next_offset + block_capacity > self.capacity:
                raise RuntimeError(f"{self.dn_id}: out of space")
            self.block_offsets[block_id] = self._next_offset
            self.block_sizes[block_id] = 0
            self._next_offset += block_capacity
        return self.block_offsets[block_id]

    # -- RPC handlers -----------------------------------------------------------

    def _on_write_packet(
        self,
        block_id: str,
        packet_offset: int,
        size: int,
        block_capacity: int,
        downstream: List[dict],
    ):
        """Persist one packet locally, then forward down the pipeline."""

        def handle() -> Generator[Event, None, dict]:
            base = self._offset_for(block_id, block_capacity)
            # Persist to the UStore space; a disk switch mid-write shows
            # up here as a remount-length stall.
            yield from self.storage.write(base + packet_offset, size)
            self.block_sizes[block_id] = max(
                self.block_sizes[block_id], packet_offset + size
            )
            self.packets_stored += 1
            acks = [self.dn_id]
            if downstream:
                nxt, rest = downstream[0], downstream[1:]
                reply = yield from self.rpc_client.call(
                    nxt["address"],
                    "dn.write_packet",
                    block_id,
                    packet_offset,
                    size,
                    block_capacity,
                    rest,
                    timeout=FORWARD_TIMEOUT,
                    request_size=size + 256,
                )
                acks.extend(reply["acks"])
            return {"acks": acks}

        return handle()

    def _on_read(self, block_id: str, offset: int, size: int):
        if block_id not in self.block_offsets:
            raise KeyError(f"{self.dn_id} has no {block_id}")
        stored = self.block_sizes[block_id]
        if offset + size > stored:
            raise ValueError(f"read past committed data ({offset + size} > {stored})")

        def handle() -> Generator[Event, None, dict]:
            base = self.block_offsets[block_id]
            result = yield from self.storage.read(base + offset, size)
            return {"ok": True, "dn": self.dn_id, "service_time": result["service_time"]}

        return handle()
