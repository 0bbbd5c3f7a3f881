"""The global storage namespace: ``/DeployUnitID/DiskID/SpaceID`` (§IV-A)."""

from __future__ import annotations

from typing import Tuple

__all__ = ["format_space_id", "parse_space_id", "space_znode_path", "target_name"]

#: Root of the StorAlloc subtree in the coordination namespace.
STORALLOC_ROOT = "/ustore/storalloc"
#: The znode holding the active Master's address.
MASTER_POINTER = "/ustore/master"


def format_space_id(unit_id: str, disk_id: str, space_index: int) -> str:
    """Build the global space name, e.g. ``/unit0/disk3/space5``."""
    for part in (unit_id, disk_id):
        if "/" in part or not part:
            raise ValueError(f"invalid name component {part!r}")
    if space_index < 0:
        raise ValueError(f"negative space index {space_index}")
    return f"/{unit_id}/{disk_id}/space{space_index}"


def parse_space_id(space_id: str) -> Tuple[str, str, int]:
    """Inverse of :func:`format_space_id`."""
    parts = space_id.strip("/").split("/")
    if len(parts) != 3 or not parts[2].startswith("space"):
        raise ValueError(f"malformed space id {space_id!r}")
    try:
        index = int(parts[2][len("space"):])
    except ValueError as exc:
        raise ValueError(f"malformed space id {space_id!r}") from exc
    return parts[0], parts[1], index


def space_znode_path(space_id: str) -> str:
    """Where a space's record lives in the coordination namespace."""
    unit, disk, index = parse_space_id(space_id)
    return f"{STORALLOC_ROOT}/{unit}_{disk}_space{index}"


def target_name(space_id: str) -> str:
    """iSCSI target name for a space (IQN-flavoured)."""
    unit, disk, index = parse_space_id(space_id)
    return f"iqn.ustore:{unit}.{disk}.space{index}"
