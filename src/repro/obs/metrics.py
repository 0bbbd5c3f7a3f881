"""Sim-time metrics: published counts, gauges and fixed-bucket histograms.

Every instrument reads timestamps from the simulator clock the registry
is bound to — never the wall clock — so two same-seed replays produce
byte-identical metric dumps (the ``DET002`` contract extends to the
observability layer).  Percentiles come from fixed buckets rather than
reservoirs: a reservoir needs a random source, which would either
perturb the experiment's RNG streams or require its own, and either way
the dump would stop being a pure function of the simulated execution.

The disabled path is :data:`NULL_REGISTRY`, a shared
:class:`NullRegistry` whose instruments are no-op singletons.
Components fetch their instruments once at construction time and call
``set``/``observe`` unconditionally on the hot path; with the null
registry those calls are empty method bodies, so a simulation without
metrics pays one no-op call per instrumented operation and nothing
else.

Each event is counted once, by the component it happens to: the count
is an int the component keeps (a stats dataclass field, an int
attribute), handed to :meth:`MetricsRegistry.publish` and read when the
registry dumps.  Durations are histograms; spans belong to the request
tracer (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_DEPTH_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]

#: Queue-depth style buckets (small integer counts).
DEFAULT_DEPTH_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0,
)

#: Latency-style buckets in seconds (sub-ms to minutes).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)

_Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


class Gauge:
    """A point-in-time value, stamped with the sim time of the last set."""

    __slots__ = ("name", "value", "updated_at", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0.0
        self.updated_at = 0.0
        self._registry = registry

    def set(self, value: float) -> None:
        self.value = value
        self.updated_at = self._registry.now()

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "updated_at": self.updated_at}


class Histogram:
    """Fixed-bucket histogram with estimated percentiles.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything beyond the last edge.  Percentile queries report
    the upper edge of the bucket holding the requested rank (clamped to
    the observed maximum), which is deterministic and needs no sample
    storage.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "observed_min", "observed_max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs ascending bucket bounds")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.observed_min = 0.0
        self.observed_max = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.observed_min = value
            self.observed_max = value
        else:
            if value < self.observed_min:
                self.observed_min = value
            if value > self.observed_max:
                self.observed_max = value
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Samples beyond the last bucket edge (the hidden tail)."""
        return self.counts[-1]

    def percentile(self, q: float) -> float:
        """Upper bucket edge at rank ``q`` (0..100), clamped to the max."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.observed_max
                return min(self.bounds[index], self.observed_max)
        return self.observed_max

    def as_dict(self) -> Dict[str, Any]:
        """Export with the exact (non-bucketed) ``sum``/``min``/``max``
        and the overflow-bucket count alongside the bucket estimates, so
        bucket-derived percentiles can always be sanity-checked against
        the true extremes (``p99 <= max``) and a tail hiding beyond the
        last edge is visible rather than silently folded into it."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "overflow": self.overflow,
            "sum": self.total,
            "min": self.observed_min,
            "max": self.observed_max,
            "mean": self.mean(),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments, plus published counts.

    Bind it to a simulator clock with :meth:`bind_clock` (done
    automatically by ``Simulator(metrics=...)``); an unbound registry
    stamps everything at t=0 but still counts correctly, so one
    registry can be carried across several sequential simulators to
    aggregate an experiment's whole run.
    """

    #: Dump schema version, bumped on incompatible layout changes.
    SCHEMA_VERSION = 2

    def __init__(self, clock: Optional[_Clock] = None) -> None:
        self._clock: _Clock = clock if clock is not None else _zero_clock
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: count name -> id(source) -> (source, attribute), for every
        #: source published under that name (each once).
        self._published: Dict[str, Dict[int, Tuple[Any, str]]] = {}

    @property
    def enabled(self) -> bool:
        return True

    def now(self) -> float:
        return self._clock()

    def bind_clock(self, clock: _Clock) -> None:
        """Point the registry at a (new) simulator's clock."""
        self._clock = clock

    # -- instruments -----------------------------------------------------

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name, self)
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name, bounds)
            self._histograms[name] = instrument
        return instrument

    def publish(self, prefix: str, source: Any, names: Sequence[str] = ()) -> None:
        """Report counts ``source`` already keeps as ``<prefix>.<name>``.

        ``names`` are int attributes of ``source``; by default every int
        field of a dataclass ``source``.  Nothing is copied: :meth:`dump`
        reads the attributes and sums them over every source published
        under the same name, so a component counts each event once, in
        its own stats, and the dump reports that count.  Publishing a
        source again under a name it is already published under changes
        nothing.
        """
        if not names:
            names = [
                f.name for f in fields(source) if type(getattr(source, f.name)) is int
            ]
        for attr in names:
            sources = self._published.setdefault(f"{prefix}.{attr}", {})
            sources[id(source)] = (source, attr)

    # -- introspection ---------------------------------------------------

    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def dump(self) -> Dict[str, Any]:
        """Deterministic, JSON-safe snapshot of every instrument."""
        return {
            "version": self.SCHEMA_VERSION,
            "counters": {
                name: float(sum(getattr(source, attr) for source, attr in sources.values()))
                for name, sources in sorted(self._published.items())
            },
            "gauges": {
                name: self._gauges[name].as_dict() for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def clear(self) -> None:
        self._gauges.clear()
        self._histograms.clear()
        self._published.clear()


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op instruments, empty dumps.

    ``NULL_REGISTRY`` is process-wide shared state, which is safe only
    because every method is a no-op — nothing observed through it can
    leak between simulators or runs.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_gauge = _NullGauge("null", self)
        self._null_histogram = _NullHistogram("null", (1.0,))

    @property
    def enabled(self) -> bool:
        return False

    def bind_clock(self, clock: _Clock) -> None:
        pass

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._null_histogram

    def publish(self, prefix: str, source: Any, names: Sequence[str] = ()) -> None:
        pass


#: Shared disabled registry; components default to this when a
#: simulator is built without metrics.
NULL_REGISTRY = NullRegistry()
