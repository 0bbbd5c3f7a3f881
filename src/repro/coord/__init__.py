"""Coordination service: a quorum-replicated mini-ZooKeeper."""

from repro.coord.client import CoordSession, SessionExpiredError
from repro.coord.service import CoordReplica, LogEntry, NotLeaderError, Role
from repro.coord.znode import (
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    Znode,
    ZnodeError,
    ZnodeTree,
)

__all__ = [
    "CoordReplica",
    "CoordSession",
    "LogEntry",
    "NodeExistsError",
    "NoNodeError",
    "NotEmptyError",
    "NotLeaderError",
    "Role",
    "SessionExpiredError",
    "Znode",
    "ZnodeError",
    "ZnodeTree",
]


def build_cluster(sim, network, size=3, rng=None, prefix="coord"):
    """Convenience: spin up a replica cluster and return the replicas."""
    addresses = [f"{prefix}{i}" for i in range(size)]
    return [
        CoordReplica(sim, network, address, addresses, rng=rng)
        for address in addresses
    ]
