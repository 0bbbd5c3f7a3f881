"""Object-level request types for the gateway (the typed submit API).

The original gateway spoke raw block coordinates —
``submit(tenant, space_id, offset, size, is_read)`` — which cannot
express the shardstore's object workload: a retrieval is "this object
inside that shard", i.e. a *sub-range* of a larger placed extent, and
the scheduler wants to know two reads share a shard so it can coalesce
them into one disk pass.

The redesigned surface is three small frozen dataclasses, each carrying
an :class:`ObjectRef` (the named, placed extent):

* :class:`ReadObject` / :class:`WriteObject` — whole-extent I/O, the
  typed equivalents of the old positional call;
* :class:`ReadRange` — a sub-range of the referenced extent, the
  shardstore's retrieval primitive (``start``/``length`` are relative
  to the ref, so callers never re-derive absolute disk offsets).

Every op resolves to the physical ``(space_id, offset, size, is_read)``
tuple via :func:`resolve_op`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

__all__ = [
    "GatewayOp",
    "ObjectRef",
    "ReadObject",
    "ReadRange",
    "WriteObject",
    "resolve_op",
]


@dataclass(frozen=True)
class ObjectRef:
    """A named, placed extent: ``object_id`` at ``(space_id, offset, size)``.

    ``object_id`` is advisory (it labels traces and audit trails); the
    physical placement is authoritative.  The shardstore puts the shard
    name here so a retrieval's trace names the shard it hit.
    """

    space_id: str
    offset: int
    size: int
    object_id: str = ""

    def __post_init__(self) -> None:
        if not self.space_id:
            raise ValueError("ObjectRef needs a space_id")
        if self.offset < 0:
            raise ValueError(f"ObjectRef offset must be >= 0, got {self.offset}")
        if self.size < 1:
            raise ValueError(f"ObjectRef size must be >= 1, got {self.size}")

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True)
class ReadObject:
    """Read the whole referenced extent."""

    tenant: str
    ref: ObjectRef


@dataclass(frozen=True)
class WriteObject:
    """Write the whole referenced extent (a shard flush, for example)."""

    tenant: str
    ref: ObjectRef


@dataclass(frozen=True)
class ReadRange:
    """Read ``length`` bytes starting ``start`` bytes into the ref.

    The shardstore retrieval primitive: the ref is the placed shard
    extent, ``start``/``length`` locate one packed object inside it.
    Offsets are *relative to the ref* so callers never handle absolute
    disk coordinates.
    """

    tenant: str
    ref: ObjectRef
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"ReadRange start must be >= 0, got {self.start}")
        if self.length < 1:
            raise ValueError(f"ReadRange length must be >= 1, got {self.length}")
        if self.start + self.length > self.ref.size:
            raise ValueError(
                f"ReadRange [{self.start}, {self.start + self.length}) "
                f"exceeds ref size {self.ref.size}"
            )


GatewayOp = Union[ReadObject, WriteObject, ReadRange]


def resolve_op(op: GatewayOp) -> Tuple[str, int, int, bool]:
    """Resolve an op to physical ``(space_id, offset, size, is_read)``."""
    if isinstance(op, ReadRange):
        return (op.ref.space_id, op.ref.offset + op.start, op.length, True)
    if isinstance(op, ReadObject):
        return (op.ref.space_id, op.ref.offset, op.ref.size, True)
    if isinstance(op, WriteObject):
        return (op.ref.space_id, op.ref.offset, op.ref.size, False)
    raise TypeError(f"not a gateway op: {op!r}")
