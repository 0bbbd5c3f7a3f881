"""Tests for the declarative Experiment registry and the unified CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import (
    EXPERIMENTS,
    Experiment,
    ExperimentRegistry,
    ExperimentResult,
    RESULT_SCHEMA_VERSION,
)
from repro.experiments.common import format_table


class TestRegistry:
    def test_every_module_is_registered(self):
        assert EXPERIMENTS.names() == [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "figure5",
            "figure6",
            "duplex",
            "hdfs_switch",
            "host_failover",
            "ablations",
            "reliability",
            "gateway_slo",
            "shardstore_small_objects",
            "tiering_staging",
        ]

    def test_entries_carry_paper_refs(self):
        for name in EXPERIMENTS.names():
            experiment = EXPERIMENTS.get(name)
            assert experiment.name == name
            assert experiment.paper_ref
            assert experiment.description

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        exp = EXPERIMENTS.get("table1")
        registry.register(exp)
        with pytest.raises(ValueError):
            registry.register(exp)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="table1"):
            EXPERIMENTS.get("nope")

    def test_unknown_param_override_rejected(self):
        with pytest.raises(TypeError, match="no_such_param"):
            EXPERIMENTS.get("figure5").run(no_such_param=1)

    def test_smoke_overrides_are_declared_params(self):
        smoked = [e for e in EXPERIMENTS if e.smoke]
        assert {e.name for e in smoked} == {
            "figure5",
            "gateway_slo",
            "shardstore_small_objects",
            "tiering_staging",
        }
        for experiment in smoked:
            assert set(experiment.smoke) <= set(experiment.params), experiment.name


class TestExperimentResult:
    def test_table4_result_is_versioned_and_json_round_trips(self):
        result = EXPERIMENTS.get("table4").run()
        assert isinstance(result, ExperimentResult)
        document = json.loads(result.to_json())
        assert document["version"] == RESULT_SCHEMA_VERSION
        assert document["name"] == "table4"
        assert document["paper_ref"]
        assert document["metrics"]
        assert document["relative_errors"]
        assert "hub power" in result.render()

    def test_figure5_result_carries_obs_and_errors(self):
        result = EXPERIMENTS.get("figure5").run()
        assert result.anchors_ok
        assert result.relative_errors["two_disk_4mb_seq_read"] < 0.05
        obs = result.obs
        assert obs["counters"]["switch.turns"] > 0
        assert any(name.endswith(".util") for name in obs["gauges"])
        assert "disk.queue_depth" in obs["histograms"]

    def test_seed_override_flows_through_params(self):
        result = EXPERIMENTS.get("figure5").run(seed=99)
        assert result.params["seed"] == 99


class TestCliJsonAndSeed:
    def test_run_json_emits_versioned_document(self, capsys):
        assert cli_main(["run", "table4", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == RESULT_SCHEMA_VERSION
        assert document["name"] == "table4"

    def test_run_json_seed_override(self, capsys):
        assert cli_main(["run", "figure5", "--json", "--seed", "21"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["params"]["seed"] == 21
        assert document["obs"]["counters"]["fabric.allocations"] > 0

    def test_seed_ignored_by_unseeded_experiments(self, capsys):
        assert cli_main(["run", "table4", "--json", "--seed", "5"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["params"] == {}

    def test_validate_json(self, capsys):
        assert cli_main(["validate", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["valid"] is True

    def test_list_shows_paper_refs(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Table I" in out


class TestFormatTable:
    def test_default_float_formatting(self):
        table = format_table(["a", "b"], [[1.25, "x"]])
        assert "1.2" in table and "x" in table

    def test_per_column_format_hook(self):
        table = format_table(
            ["name", "value", "ratio"],
            [["disk", 1234.5678, 0.25]],
            formats=[None, ".2f", ".0%"],
        )
        assert "1234.57" in table
        assert "25%" in table
