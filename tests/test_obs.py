"""Tests for the repro.obs metrics/tracing layer (sim-time, deterministic)."""

import json
from dataclasses import dataclass, field, fields
from typing import List

import pytest

from repro.obs import (
    DEFAULT_DEPTH_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    export_text,
)
from repro.sim import Simulator


@dataclass
class _Stats:
    done: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)


class _Component:
    def __init__(self) -> None:
        self.ios = 0


class TestPublish:
    def test_sources_under_one_name_sum(self):
        registry = MetricsRegistry()
        registry.publish("store", _Stats(done=2, failed=1))
        registry.publish("store", _Stats(done=3))
        counters = registry.dump()["counters"]
        assert counters == {"store.done": 5.0, "store.failed": 1.0}

    def test_values_are_read_at_dump_time(self):
        registry = MetricsRegistry()
        stats = _Stats()
        component = _Component()
        registry.publish("store", stats)
        registry.publish("disk", component, ("ios",))
        stats.done += 7
        component.ios += 2
        counters = registry.dump()["counters"]
        assert counters["store.done"] == 7
        assert counters["disk.ios"] == 2

    def test_null_registry_ignores_publish(self):
        NULL_REGISTRY.publish("store", _Stats(done=1))
        assert NULL_REGISTRY.dump()["counters"] == {}

    def test_clear_forgets_sources(self):
        registry = MetricsRegistry()
        registry.publish("store", _Stats(done=1))
        registry.clear()
        assert registry.dump()["counters"] == {}

    def test_a_source_published_again_counts_once(self):
        registry = MetricsRegistry()
        component = _Component()
        component.ios = 3
        for _ in range(2):
            registry.publish("disk", component, ("ios",))
        registry.publish("disk", _Component(), ("ios",))
        assert registry.dump()["counters"] == {"disk.ios": 3.0}


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


class TestNullRegistry:
    def test_disabled_registry_is_a_no_op(self):
        assert NULL_REGISTRY.enabled is False
        gauge = NULL_REGISTRY.gauge("g")
        gauge.set(9.0)
        hist = NULL_REGISTRY.histogram("h", (1.0,))
        hist.observe(5.0)
        dump = NULL_REGISTRY.dump()
        assert dump["counters"] == {}
        assert dump["gauges"] == {}
        assert dump["histograms"] == {}
        assert "spans" not in dump

    def test_simulator_defaults_to_null_registry(self):
        sim = Simulator()
        assert sim.metrics is NULL_REGISTRY
        sim.defer(1.0, lambda: None)
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
        component = _Component()
        component.ios = 3
        registry.publish("c", component, ("ios",))
        registry.gauge("g").set(1.5)
        registry.histogram("h", (1.0, 2.0)).observe(1.0)
        registry.publish("p", _Stats(done=4))
        text = export_text(registry)
        for token in ("c.ios", "g", "h", "p.done"):
            assert token in text


def _int_fields(stats_type):
    return [f.name for f in fields(stats_type) if f.type in (int, "int")]


@pytest.mark.parametrize(
    "name", ["gateway_slo", "shardstore_small_objects", "tiering_staging"]
)
def test_published_counters_are_the_summaries_counts(name):
    """Each published counter is the count its component keeps: in the
    obs dump it equals that field summed over the variants' summaries."""
    from repro.experiments import EXPERIMENTS
    from repro.gateway.gateway import GatewayStats
    from repro.shardstore.store import ShardStoreStats
    from repro.tiering.store import TieringStats

    experiment = EXPERIMENTS.get(name)
    result = experiment.run(**experiment.smoke)
    counters = result.obs["counters"]
    variants = list(result.raw["variants"].values())
    expected = {
        f"gateway.{field_name}": sum(v[field_name] for v in variants)
        for field_name in _int_fields(GatewayStats)
    }
    stores = [v["store"] for v in variants if "store" in v]
    if name != "gateway_slo":
        assert stores
        prefix, stats_type = (
            ("tiering", TieringStats)
            if name == "tiering_staging"
            else ("shardstore", ShardStoreStats)
        )
        for field_name in _int_fields(stats_type):
            if field_name in stores[0]:
                expected[f"{prefix}.{field_name}"] = sum(
                    store[field_name] for store in stores
                )
    if name == "tiering_staging":
        expected["tiering.staging.overflows"] = sum(
            store["staging_overflows"] for store in stores
        )
    assert expected["gateway.submitted"] > 0
    assert {key: counters[key] for key in expected} == expected
