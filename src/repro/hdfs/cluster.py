"""Assembling a mini-HDFS cluster on top of a UStore deployment (§VII-B).

The paper's overlay experiment: Hadoop on the four prototype hosts, one
namenode and three datanodes, three-way replication, with UStore disks
as datanode storage.  :func:`build_hdfs_on_ustore` reproduces that
arrangement over a :class:`~repro.cluster.deployment.Deployment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.cluster.deployment import Deployment
from repro.hdfs.client import HdfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.sim import Event
from repro.units import GiB

__all__ = ["HdfsOnUstore", "build_hdfs_on_ustore"]

#: Datanodes, each on its own host beside the namenode's (§VII-B).
NUM_DATANODES = 3
#: Size of the UStore space that backs each datanode.
SPACE_BYTES = 2 * GiB


@dataclass
class HdfsOnUstore:
    deployment: Deployment
    namenode: NameNode
    datanodes: Dict[str, DataNode]
    spaces: Dict[str, str]  # dn id -> backing UStore space id

    def new_client(self, name: str) -> HdfsClient:
        return HdfsClient(
            self.deployment.sim, self.deployment.network, name, self.namenode.address
        )

    def backing_disk_of(self, dn_id: str) -> str:
        from repro.cluster.namespace import parse_space_id

        return parse_space_id(self.spaces[dn_id])[1]


def build_hdfs_on_ustore(deployment: Deployment) -> Generator[Event, None, HdfsOnUstore]:
    """Allocate UStore spaces and start the mini-HDFS processes.

    One host runs the namenode; ``NUM_DATANODES`` others each run a
    datanode whose storage is a UStore space allocated with that host
    as the locality hint (matching §VII-B: one host for the namenode,
    three hosts for datanodes, three replicas).
    """
    sim = deployment.sim
    hosts = deployment.fabric.hosts()
    if NUM_DATANODES + 1 > len(hosts):
        raise ValueError("need one host for the namenode plus one per datanode")
    namenode = NameNode(sim, deployment.network, address="namenode")
    datanodes: Dict[str, DataNode] = {}
    spaces: Dict[str, str] = {}
    used_disks: List[str] = []
    for index, host in enumerate(hosts[1 : NUM_DATANODES + 1]):
        dn_id = f"dn{index}"
        client = deployment.new_client(f"hdfs.{dn_id}", service="hdfs")
        # Replicas must live on distinct spindles, so exclude the disks
        # earlier datanodes received (overriding same-service affinity).
        info = yield from client.allocate(
            SPACE_BYTES, locality_hint=host, exclude_disks=used_disks
        )
        from repro.cluster.namespace import parse_space_id

        used_disks.append(parse_space_id(info["space_id"])[1])
        space = yield from client.mount(info["space_id"])
        datanodes[dn_id] = DataNode(
            sim,
            deployment.network,
            dn_id,
            namenode.address,
            storage=space,
            capacity=SPACE_BYTES,
        )
        spaces[dn_id] = info["space_id"]
    return HdfsOnUstore(
        deployment=deployment, namenode=namenode, datanodes=datanodes, spaces=spaces
    )
