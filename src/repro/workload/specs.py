"""Iometer-style workload specifications (§VII-A).

The paper's evaluation sweeps three parameters: transfer request size,
sequential vs random access, and the read percentage of the mix.  A
:class:`WorkloadSpec` captures one cell of that sweep; helpers name the
cells the way the paper's Figure 5 does (e.g. ``4KB-S-R``), whose
``KB``/``MB`` labels name binary sizes (4 KiB, 4 MiB).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.units import KiB, MiB

__all__ = ["AccessPattern", "WorkloadSpec", "TABLE2_WORKLOADS"]


class AccessPattern(enum.Enum):
    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(frozen=True)
class WorkloadSpec:
    """One Iometer access specification.

    ``read_fraction`` is the fraction of operations that are reads
    (1.0, 0.5 and 0.0 in the paper's tables).
    """

    transfer_size: int
    pattern: AccessPattern
    read_fraction: float

    def __post_init__(self) -> None:
        if self.transfer_size <= 0:
            raise ValueError(f"transfer_size must be positive, got {self.transfer_size}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")

    @property
    def is_sequential(self) -> bool:
        return self.pattern is AccessPattern.SEQUENTIAL

    @property
    def name(self) -> str:
        """Figure 5 style name, e.g. ``4KB-S-R`` or ``4MB-R-W``."""
        if self.transfer_size % MiB == 0:
            size = f"{self.transfer_size // MiB}MB"
        elif self.transfer_size % KiB == 0:
            size = f"{self.transfer_size // KiB}KB"
        else:
            size = f"{self.transfer_size}B"
        pattern = "S" if self.is_sequential else "R"
        if self.read_fraction == 1.0:
            mix = "R"
        elif self.read_fraction == 0.0:
            mix = "W"
        else:
            mix = f"{int(self.read_fraction * 100)}%R"
        return f"{size}-{pattern}-{mix}"

    @staticmethod
    def parse(name: str) -> "WorkloadSpec":
        """Inverse of :attr:`name` for the common forms."""
        size_part, pattern_part, mix_part = name.split("-")
        if size_part.endswith("MB"):
            size = int(size_part[:-2]) * MiB
        elif size_part.endswith("KB"):
            size = int(size_part[:-2]) * KiB
        elif size_part.endswith("B"):
            size = int(size_part[:-1])
        else:
            raise ValueError(f"cannot parse size from {name!r}")
        pattern = AccessPattern.SEQUENTIAL if pattern_part == "S" else AccessPattern.RANDOM
        if mix_part == "R":
            read_fraction = 1.0
        elif mix_part == "W":
            read_fraction = 0.0
        elif mix_part.endswith("%R"):
            read_fraction = int(mix_part[:-2]) / 100.0
        else:
            raise ValueError(f"cannot parse mix from {name!r}")
        return WorkloadSpec(size, pattern, read_fraction)


def _table2_grid() -> tuple[WorkloadSpec, ...]:
    specs = []
    for size in (4 * KiB, 4 * MiB):
        for pattern in (AccessPattern.SEQUENTIAL, AccessPattern.RANDOM):
            for read_fraction in (1.0, 0.5, 0.0):
                specs.append(WorkloadSpec(size, pattern, read_fraction))
    return tuple(specs)


#: The 12 workload cells of Table II, in the paper's column order.
TABLE2_WORKLOADS = _table2_grid()
