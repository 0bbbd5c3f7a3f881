"""Workload specifications, Iometer-style drivers, and trace generators."""

from repro.workload.specs import AccessPattern, TABLE2_WORKLOADS, WorkloadSpec
from repro.workload.traces import AccessEvent, archival_batch_trace, cold_read_trace

__all__ = [
    "AccessEvent",
    "AccessPattern",
    "IometerRun",
    "TABLE2_WORKLOADS",
    "WorkerStats",
    "WorkloadSpec",
    "archival_batch_trace",
    "cold_read_trace",
    "model_throughput",
]

# The Iometer driver pulls in the disk device model, which itself uses
# workload.specs; load it lazily (PEP 562) to keep imports acyclic.
_LAZY = {"IometerRun", "WorkerStats", "model_throughput"}


def __getattr__(name):
    if name in _LAZY:
        from repro.workload import iometer

        return getattr(iometer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
