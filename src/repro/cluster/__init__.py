"""UStore management stack: Master, Controller, EndPoint, ClientLib."""

from repro.cluster.clientlib import ClientLib, MountedSpace, StorageUnavailableError
from repro.cluster.controller import CommandFailed, Controller
from repro.cluster.deployment import (
    DeployUnit,
    Deployment,
    DeploymentConfig,
    build_deployment,
)
from repro.cluster.endpoint import EndPoint
from repro.cluster.master import AllocationError, Master, MasterConfig
from repro.cluster.metadata import DiskStatus, HostStatus, SpaceRecord, SysConf, SysStat
from repro.cluster.namespace import (
    format_space_id,
    parse_space_id,
    space_znode_path,
    target_name,
)

__all__ = [
    "AllocationError",
    "ClientLib",
    "CommandFailed",
    "Controller",
    "DeployUnit",
    "Deployment",
    "DeploymentConfig",
    "DiskStatus",
    "EndPoint",
    "HostStatus",
    "Master",
    "MasterConfig",
    "MountedSpace",
    "SpaceRecord",
    "StorageUnavailableError",
    "SysConf",
    "SysStat",
    "build_deployment",
    "format_space_id",
    "parse_space_id",
    "space_znode_path",
    "target_name",
]
