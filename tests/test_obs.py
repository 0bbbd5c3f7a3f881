"""Tests for the repro.obs metrics/tracing layer (sim-time, deterministic)."""

import json

from repro.obs import (
    DEFAULT_DEPTH_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    export_text,
)
from repro.sim import Simulator


class TestCounters:
    def test_counter_counts_and_rejects_negatives(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        try:
            counter.inc(-1)
        except ValueError:
            pass
        else:
            raise AssertionError("negative increment must raise")
        assert counter.value == 3.5

    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("same") is registry.counter("same")


class TestGauges:
    def test_gauge_set_add_and_timestamp(self):
        clock = [0.0]
        registry = MetricsRegistry()
        registry.bind_clock(lambda: clock[0])
        gauge = registry.gauge("g")
        gauge.set(4.0)
        clock[0] = 7.5
        gauge.add(1.0)
        assert gauge.value == 5.0
        assert gauge.updated_at == 7.5


class TestHistograms:
    def test_percentiles_from_fixed_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("depth", DEFAULT_DEPTH_BUCKETS)
        for depth in [0, 1, 1, 2, 3, 8, 40]:
            hist.observe(depth)
        d = hist.as_dict()
        assert d["count"] == 7
        assert d["min"] == 0 and d["max"] == 40
        # p50 of [0,1,1,2,3,8,40] falls in the "2" bucket.
        assert hist.percentile(50.0) == 2
        # p99 lands in the top observed bucket, clamped to the max seen.
        assert hist.percentile(99.0) == 40

    def test_percentile_clamps_to_observed_max(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", (1.0, 10.0, 100.0))
        hist.observe(2.0)
        # The sample sits in the (1, 10] bucket whose upper edge is 10,
        # but nothing larger than 2.0 was ever observed.
        assert hist.percentile(99.0) == 2.0


class TestSpans:
    def test_span_nesting_under_sim_clock(self):
        registry = MetricsRegistry()
        sim = Simulator(metrics=registry)

        def outer():
            with registry.span("outer"):
                yield sim.timeout(2.0)
                with registry.span("inner"):
                    yield sim.timeout(3.0)

        sim.run_until_event(sim.process(outer()))
        records = {r.name: r for r in registry.spans}
        assert records["outer"].depth == 0
        assert records["inner"].depth == 1
        assert records["inner"].parent_index == records["outer"].index
        assert records["inner"].start == 2.0
        assert records["inner"].duration == 3.0
        assert records["outer"].duration == 5.0
        summary = registry.span_summary()
        assert summary["outer"]["count"] == 1.0
        assert summary["outer"]["total_seconds"] == 5.0


class TestNullRegistry:
    def test_disabled_registry_is_a_no_op(self):
        assert NULL_REGISTRY.enabled is False
        counter = NULL_REGISTRY.counter("anything")
        counter.inc()
        gauge = NULL_REGISTRY.gauge("g")
        gauge.set(9.0)
        hist = NULL_REGISTRY.histogram("h", (1.0,))
        hist.observe(5.0)
        with NULL_REGISTRY.span("s"):
            pass
        dump = NULL_REGISTRY.dump()
        assert dump["counters"] == {}
        assert dump["gauges"] == {}
        assert dump["histograms"] == {}
        assert dump["spans"] == {}

    def test_simulator_defaults_to_null_registry(self):
        sim = Simulator()
        assert sim.metrics is NULL_REGISTRY
        sim.call_in(1.0, lambda: None)
        sim.run(until=2.0)
        assert sim.metrics.dump()["counters"] == {}


class TestDeterministicExport:
    def test_same_seed_figure5_runs_dump_identical_bytes(self):
        from repro.experiments import EXPERIMENTS

        dumps = []
        for _ in range(2):
            obs = EXPERIMENTS.get("figure5").run(seed=13).obs
            dumps.append(json.dumps(obs, sort_keys=True))
        assert dumps[0] == dumps[1]
        # And the dump is real, not empty.
        parsed = json.loads(dumps[0])
        assert parsed["counters"]["fabric.allocations"] > 0

    def test_export_text_renders_every_section(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", (1.0, 2.0)).observe(1.0)
        with registry.span("s"):
            pass
        text = export_text(registry)
        for token in ("c", "g", "h", "s"):
            assert token in text
