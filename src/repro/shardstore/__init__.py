"""repro.shardstore — small-object shard packing over the block layer.

UStore's economics assume large archival blobs, but real archival
traffic is dominated by billions of small objects.  This package adds
the tier that makes the object-count workload viable on the same
hardware: a metadata-database-free packer/retriever where

* routing is a pure function — ``shard_id = route(uid, date)`` — so
  no lookup table exists anywhere (:mod:`repro.shardstore.routing`);
* packers coalesce thousands of small objects into large sequential
  shard writes, amortizing one spin-up over the run
  (:mod:`repro.shardstore.packer`);
* retrieval maps an object to a ``(shard, offset, size)`` triple and
  reads it back as a gateway sub-block :class:`~repro.gateway
  .ReadRange`, which the scheduler coalesces with other same-shard
  reads into one disk pass (:mod:`repro.shardstore.store`).

See DESIGN.md §12 and the ``shardstore_small_objects`` experiment.
"""

from repro.shardstore.packer import (  # noqa: F401
    ObjectState,
    PackedObject,
    RECORD_HEADER_BYTES,
    ShardBuffer,
    ShardCapacityError,
)
from repro.shardstore.routing import (  # noqa: F401
    ShardId,
    ShardLayout,
    ShardPlacement,
    day_number,
    place,
    route,
    stable_hash,
)
from repro.shardstore.store import (  # noqa: F401
    FlushRefusedError,
    ObjectNotFoundError,
    ShardStore,
    ShardStoreConfig,
    ShardStoreError,
    ShardStoreStats,
)

__all__ = [
    "FlushRefusedError",
    "ObjectNotFoundError",
    "ObjectState",
    "PackedObject",
    "RECORD_HEADER_BYTES",
    "ShardBuffer",
    "ShardCapacityError",
    "ShardId",
    "ShardLayout",
    "ShardPlacement",
    "ShardStore",
    "ShardStoreConfig",
    "ShardStoreError",
    "ShardStoreStats",
    "day_number",
    "place",
    "route",
    "stable_hash",
]
