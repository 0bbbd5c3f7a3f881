"""Mini-HDFS namenode (the §VII-B overlay experiment's metadata server).

Tracks files as block lists, block replica locations, and datanode
liveness through heartbeats.  Placement picks the least-loaded live
datanodes, which is all the replication policy the experiment needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.network import Network
from repro.net.rpc import RpcServer
from repro.sim import Simulator

__all__ = ["BlockInfo", "NameNode"]

#: Replicas per block (§VII-B's three-way replication).
REPLICATION = 3
#: Seconds of heartbeat silence after which a datanode counts as dead.
HEARTBEAT_TIMEOUT = 5.0


@dataclass
class BlockInfo:
    block_id: str
    size: int
    replicas: List[str] = field(default_factory=list)  # datanode ids


class NameNode:
    """Single metadata server (as in Hadoop 1.x, used by the paper)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str = "namenode",
    ):
        self.sim = sim
        self.address = address
        self.files: Dict[str, List[str]] = {}  # path -> block ids
        self.blocks: Dict[str, BlockInfo] = {}
        self.datanodes: Dict[str, str] = {}  # dn id -> rpc address
        self.last_heartbeat: Dict[str, float] = {}
        self._block_counter = 0
        self.rpc = RpcServer(sim, network, address)
        self.rpc.register("nn.register", self._on_register)
        self.rpc.register("nn.heartbeat", self._on_heartbeat)
        self.rpc.register("nn.create", self._on_create)
        self.rpc.register("nn.add_block", self._on_add_block)
        self.rpc.register("nn.commit_block", self._on_commit_block)
        self.rpc.register("nn.locate", self._on_locate)

    # -- liveness -----------------------------------------------------------

    def live_datanodes(self) -> List[str]:
        now = self.sim.now
        return sorted(
            dn
            for dn, last in self.last_heartbeat.items()
            if now - last <= HEARTBEAT_TIMEOUT
        )

    def _on_register(self, dn_id: str, address: str) -> bool:
        self.datanodes[dn_id] = address
        self.last_heartbeat[dn_id] = self.sim.now
        return True

    def _on_heartbeat(self, dn_id: str) -> bool:
        if dn_id not in self.datanodes:
            raise RuntimeError(f"unregistered datanode {dn_id!r}")
        self.last_heartbeat[dn_id] = self.sim.now
        return True

    # -- namespace ------------------------------------------------------------

    def _on_create(self, path: str) -> bool:
        if path in self.files:
            raise FileExistsError(path)
        self.files[path] = []
        return True

    def _load_of(self, dn_id: str) -> int:
        return sum(1 for b in self.blocks.values() if dn_id in b.replicas)

    def _on_add_block(self, path: str, exclude: Optional[List[str]] = None) -> dict:
        """Allocate a new block and choose its replica pipeline."""
        if path not in self.files:
            raise FileNotFoundError(path)
        exclude_set = set(exclude or ())
        candidates = [dn for dn in self.live_datanodes() if dn not in exclude_set]
        if not candidates:
            raise RuntimeError("no live datanodes")
        candidates.sort(key=lambda dn: (self._load_of(dn), dn))
        pipeline = candidates[:REPLICATION]
        block_id = f"blk_{self._block_counter}"
        self._block_counter += 1
        self.blocks[block_id] = BlockInfo(block_id=block_id, size=0)
        self.files[path].append(block_id)
        return {
            "block_id": block_id,
            "pipeline": [
                {"dn_id": dn, "address": self.datanodes[dn]} for dn in pipeline
            ],
        }

    def _on_commit_block(self, block_id: str, size: int, replicas: List[str]) -> bool:
        info = self.blocks.get(block_id)
        if info is None:
            raise KeyError(block_id)
        info.size = size
        info.replicas = list(replicas)
        return True

    def _on_locate(self, path: str) -> List[dict]:
        """Block list with live replica addresses, in file order."""
        if path not in self.files:
            raise FileNotFoundError(path)
        live = set(self.live_datanodes())
        located = []
        for block_id in self.files[path]:
            info = self.blocks[block_id]
            located.append(
                {
                    "block_id": block_id,
                    "size": info.size,
                    "replicas": [
                        {"dn_id": dn, "address": self.datanodes[dn]}
                        for dn in info.replicas
                        if dn in live
                    ],
                }
            )
        return located
