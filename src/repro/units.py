"""Dimension vocabulary for cross-layer quantitative bookkeeping.

UStore's economics hinge on numbers that cross subsystem boundaries:
the power accountant budgets **watts**, the meter integrates **joules**,
the fabric allocator shares **bytes/second**, the paper's tables quote
**MB/s**, and the kernel advances **simulated seconds**.  A silent unit
mix-up (watts added to joules, an MB/s handed to a bytes/s parameter)
corrupts every downstream experiment without failing a single test.

This module is the single vocabulary both layers share:

* ``NewType`` dimensions — :data:`Watts`, :data:`Joules`,
  :data:`Bytes`, :data:`BytesPerSec`, :data:`MBps`,
  :data:`SimSeconds` — used to annotate real signatures.  They are
  identity functions at runtime (zero cost) and nominal types under
  mypy, and the static checker in :mod:`repro.analysis.units` reads
  them off annotations to run an AST dataflow over dimensioned
  arithmetic (rules UNIT001–UNIT006, see DESIGN.md §11);
* declared scale constants — :data:`KB`/:data:`MB`/:data:`GB`/:data:`TB`
  (decimal, the paper's MB/s convention) and
  :data:`KiB`/:data:`MiB`/:data:`GiB`/:data:`TiB` (binary, transfer and
  chunk sizes) — so byte-scale magic literals (``1e6``, ``1 << 20``)
  never appear inline in dimensioned arithmetic.  This is the only
  module that binds these eight names; every other module imports them
  from here under their own names, so each name has one meaning
  everywhere (``tests/test_byte_scale_names.py`` enforces it);
* conversion helpers that perform the *only* sanctioned unit-crossing
  arithmetic: the checker knows their signatures and treats their
  results as correctly dimensioned.
"""

from __future__ import annotations

from typing import NewType

__all__ = [
    "Bytes",
    "BytesPerSec",
    "GB",
    "GiB",
    "Joules",
    "KB",
    "KiB",
    "MB",
    "MBps",
    "MiB",
    "SimSeconds",
    "TB",
    "TiB",
    "Watts",
    "bytes_per_sec_to_mbps",
    "bytes_to_mb",
    "joules_to_watts",
    "mb_to_bytes",
    "mbps_to_bytes_per_sec",
    "watt_seconds",
]

# -- dimensions ------------------------------------------------------------

#: Instantaneous electrical power.
Watts = NewType("Watts", float)
#: Integrated energy (watts x seconds).
Joules = NewType("Joules", float)
#: A byte count (capacities, offsets, transfer sizes).
Bytes = NewType("Bytes", int)
#: A data rate in bytes per second (fabric/disk native unit).
BytesPerSec = NewType("BytesPerSec", float)
#: A data rate in decimal megabytes per second (the paper's tables).
MBps = NewType("MBps", float)
#: Simulated time in seconds (``Simulator.now`` deltas — never wall time).
SimSeconds = NewType("SimSeconds", float)

# -- declared byte scales --------------------------------------------------

#: Decimal scales: rates and capacities quoted the way the paper does.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

#: Binary scales: transfer sizes, chunk sizes, track geometry.
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30
TiB = 1 << 40

# -- sanctioned conversions ------------------------------------------------


def watt_seconds(power: Watts, seconds: SimSeconds) -> Joules:
    """Integrate constant ``power`` over ``seconds`` into energy."""
    return Joules(power * seconds)


def joules_to_watts(energy: Joules, seconds: SimSeconds) -> Watts:
    """Average power of ``energy`` spread over ``seconds``."""
    if seconds <= 0.0:
        raise ValueError(f"non-positive interval {seconds!r}")
    return Watts(energy / seconds)


def bytes_per_sec_to_mbps(rate: BytesPerSec) -> MBps:
    """Convert a native bytes/s rate to the paper's decimal MB/s."""
    return MBps(rate / MB)


def mbps_to_bytes_per_sec(rate: MBps) -> BytesPerSec:
    """Convert a decimal MB/s figure to the native bytes/s unit."""
    return BytesPerSec(rate * MB)


def bytes_to_mb(count: Bytes) -> float:
    """Size in decimal megabytes (dimensionless scale for reporting)."""
    return count / MB


def mb_to_bytes(megabytes: float) -> Bytes:
    """Decimal megabytes back to a whole byte count."""
    return Bytes(int(megabytes * MB))
