"""Typed requests and errors for the gateway tier.

A :class:`GatewayRequest` is one logical client operation flowing
through the request tier: tagged with its tenant, target space/disk,
arrival time and SLO deadline at admission, and carried through the
weighted-fair queue, the batch scheduler and the ClientLib I/O path
unchanged — the object *is* the audit trail (every state transition
stamps it), which is what the exactly-once tests assert against.

Admission failures are typed (:class:`QueueFullError`,
:class:`UnknownTenantError`) so open-loop generators and upper layers
can distinguish "backpressure, shed the request" from "misconfigured
tenant" without string matching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.trace import NULL_TRACE, TraceContext

__all__ = [
    "AdmissionError",
    "GatewayError",
    "GatewayRequest",
    "QueueFullError",
    "RequestState",
    "UnknownTenantError",
]


class GatewayError(Exception):
    """Base class for all gateway-tier errors."""


class AdmissionError(GatewayError):
    """A request was refused at the door (admission control)."""

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(f"{tenant}: {reason}")
        self.tenant = tenant
        self.reason = reason


class QueueFullError(AdmissionError):
    """The tenant's queue is at its bounded depth; request rejected."""

    def __init__(self, tenant: str, depth: int, limit: int) -> None:
        super().__init__(tenant, f"queue full ({depth}/{limit})")
        self.depth = depth
        self.limit = limit


class UnknownTenantError(AdmissionError):
    """Request names a tenant the gateway was not configured with."""

    def __init__(self, tenant: str) -> None:
        super().__init__(tenant, "unknown tenant")


class RequestState(enum.Enum):
    QUEUED = "queued"
    DISPATCHED = "dispatched"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class GatewayRequest:
    """One admitted client operation and its lifecycle stamps."""

    request_id: int
    tenant: str
    space_id: str
    disk_id: str
    offset: int
    size: int
    is_read: bool
    arrival: float
    deadline: float
    fair_tag: float = 0.0
    state: RequestState = RequestState.QUEUED
    attempts: int = 0
    dispatched_at: Optional[float] = None
    completed_at: Optional[float] = None
    failure: Optional[str] = field(default=None, repr=False)
    #: The request's causal trace, carried explicitly through the whole
    #: path (gateway -> ClientLib -> iSCSI -> disk).  Defaults to the
    #: shared no-op context, so untraced runs pay nothing.
    trace: TraceContext = field(default=NULL_TRACE, repr=False)
    #: Invoked exactly once from :meth:`Gateway._finish`, after the
    #: request reached COMPLETED or FAILED — the shardstore's ack hook.
    on_complete: Optional[Callable[["GatewayRequest"], None]] = field(
        default=None, repr=False
    )

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion sim seconds; ``None`` while in flight."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival

    def missed_slo(self) -> bool:
        """Whether the request completed after its deadline."""
        return self.completed_at is not None and self.completed_at > self.deadline
