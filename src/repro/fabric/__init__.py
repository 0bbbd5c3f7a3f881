"""The UStore interconnect fabric: components, topology, switching, sharing."""

from repro.fabric.bandwidth import BandwidthModel, Flow, FlowAllocation
from repro.fabric.builders import (
    dual_tree_fabric,
    prototype_fabric,
    rack_fabric,
    ring_fabric,
)
from repro.fabric.components import (
    Bridge,
    DiskNode,
    FabricError,
    FabricNode,
    HostPort,
    Hub,
    NodeKind,
    Switch,
)
from repro.fabric.power import FabricPowerModel, FabricPowerParams, hub_power
from repro.fabric.switching import SwitchConflict, SwitchPlan, execute_plan, plan_switches
from repro.fabric.topology import Fabric, Path, SwitchSetting
from repro.fabric.validate import ValidationReport, validate_fabric

__all__ = [
    "BandwidthModel",
    "Bridge",
    "DiskNode",
    "Fabric",
    "FabricError",
    "FabricNode",
    "FabricPowerModel",
    "FabricPowerParams",
    "Flow",
    "FlowAllocation",
    "HostPort",
    "Hub",
    "NodeKind",
    "Path",
    "Switch",
    "SwitchConflict",
    "SwitchPlan",
    "SwitchSetting",
    "ValidationReport",
    "dual_tree_fabric",
    "execute_plan",
    "hub_power",
    "plan_switches",
    "prototype_fabric",
    "rack_fabric",
    "ring_fabric",
    "validate_fabric",
]
