"""repro.obs — sim-time observability: metrics, tracing, SLO, exporters.

The registry and the request tracer are driven by the simulator clock
(never the wall clock), so every metric dump and every trace export is
a deterministic function of the simulated execution: two same-seed
replays export byte-identical JSON.  See DESIGN.md, "Observability"
and "Request tracing & latency attribution".
"""

from repro.obs.energy import (
    ACCOUNT_IDLE,
    ACCOUNT_OVERHEAD,
    ACCOUNT_SYSTEM,
    ConservationAuditor,
    DiskEnergyBook,
    EnergyConservationError,
    EnergyLedger,
    SpinUpBlame,
    tenant_account,
)
from repro.obs.export import export_json, export_text
from repro.obs.metrics import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.slo import FlightRecorder, SloAlert, SloMonitor, SloObjective
from repro.obs.trace import (
    COMPONENTS,
    NULL_SCOPE,
    NULL_TRACE,
    NULL_TRACER,
    CriticalPathAnalyzer,
    InstantRecord,
    NullTraceContext,
    NullTracer,
    PhaseSegment,
    RequestTracer,
    TraceContext,
    TraceEvent,
    TraceScope,
)
from repro.obs.trace_export import (
    chrome_trace_events,
    export_chrome_trace,
    export_trace_jsonl,
    trace_to_dict,
)

__all__ = [
    "ACCOUNT_IDLE",
    "ACCOUNT_OVERHEAD",
    "ACCOUNT_SYSTEM",
    "COMPONENTS",
    "ConservationAuditor",
    "CriticalPathAnalyzer",
    "DiskEnergyBook",
    "EnergyConservationError",
    "EnergyLedger",
    "SpinUpBlame",
    "DEFAULT_DEPTH_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SCOPE",
    "NULL_TRACE",
    "NULL_TRACER",
    "NullRegistry",
    "NullTraceContext",
    "NullTracer",
    "PhaseSegment",
    "RequestTracer",
    "SloAlert",
    "SloMonitor",
    "SloObjective",
    "TraceContext",
    "TraceEvent",
    "TraceScope",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_json",
    "export_text",
    "export_trace_jsonl",
    "tenant_account",
    "trace_to_dict",
]
