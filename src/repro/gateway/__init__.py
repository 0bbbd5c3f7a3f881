"""repro.gateway — the multi-tenant request tier in front of the cluster.

The layer the paper assumes but never draws: between "millions of
archival users" and the 16-disk deploy unit sits a gateway that admits,
queues and schedules requests.  Modules:

* :mod:`repro.gateway.request` — typed requests and admission errors;
* :mod:`repro.gateway.tenants` — tenant specs and the open-loop
  Poisson traffic generator;
* :mod:`repro.gateway.queues` — bounded per-tenant weighted-fair queues;
* :mod:`repro.gateway.scheduler` — the power-budgeted cold-read batch
  scheduler and the naive FIFO baseline;
* :mod:`repro.gateway.gateway` — the gateway itself, dispatching
  batches through the ClientLib mount path.

See DESIGN.md §9 and the ``gateway_slo`` experiment.

The request surface is object-level (DESIGN.md §12): callers build an
:class:`ObjectRef` and submit :class:`ReadObject` / :class:`WriteObject`
/ :class:`ReadRange` ops.  Everything callers need — the op types and
the typed error hierarchy included — is importable from this package
root.
"""

from repro.gateway.api import (  # noqa: F401
    GatewayOp,
    ObjectRef,
    ReadObject,
    ReadRange,
    WriteObject,
    resolve_op,
)
from repro.gateway.gateway import (  # noqa: F401
    Gateway,
    GatewayConfig,
    GatewayObject,
    GatewayStats,
    TenantStats,
    mount_gateway_spaces,
    percentile,
)
from repro.gateway.queues import PendingDisk, WeightedFairQueue  # noqa: F401
from repro.gateway.request import (  # noqa: F401
    AdmissionError,
    GatewayError,
    GatewayRequest,
    QueueFullError,
    RequestState,
    UnknownTenantError,
)
from repro.gateway.scheduler import (  # noqa: F401
    ColdReadBatchScheduler,
    DiskPass,
    FifoScheduler,
    PowerAccountant,
    Scheduler,
    coalesce_batch,
    make_scheduler,
)
from repro.gateway.tenants import OpenLoopTrafficGenerator, TenantSpec  # noqa: F401

__all__ = [
    "AdmissionError",
    "ColdReadBatchScheduler",
    "DiskPass",
    "FifoScheduler",
    "Gateway",
    "GatewayConfig",
    "GatewayError",
    "GatewayObject",
    "GatewayOp",
    "GatewayRequest",
    "GatewayStats",
    "ObjectRef",
    "OpenLoopTrafficGenerator",
    "PendingDisk",
    "PowerAccountant",
    "QueueFullError",
    "ReadObject",
    "ReadRange",
    "RequestState",
    "Scheduler",
    "TenantSpec",
    "TenantStats",
    "UnknownTenantError",
    "WeightedFairQueue",
    "WriteObject",
    "coalesce_batch",
    "make_scheduler",
    "mount_gateway_spaces",
    "percentile",
    "resolve_op",
]
