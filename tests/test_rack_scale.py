"""Rack-scale builders and the benchmark suite."""

from __future__ import annotations

import json

import pytest

from repro.benchmarks import append_record, available_benchmarks, run_benchmark
from repro.benchmarks.suite import bench_experiment
from repro.cli import main as cli_main
from repro.fabric import FabricError, rack_fabric, validate_fabric


class TestRackFabric:
    def test_pod_counts(self):
        fabric = rack_fabric(3)
        assert len(fabric.disks) == 48
        assert len(fabric.host_ports) == 12
        assert fabric.name == "rack-3x16d-12h"

    def test_every_disk_attached(self):
        fabric = rack_fabric(2)
        for disk in fabric.disks:
            assert fabric.attached_port(disk.node_id) is not None

    def test_pods_are_isolated(self):
        fabric = rack_fabric(2)
        for disk in fabric.disks:
            pod_prefix = disk.node_id.split("-")[0]
            path = fabric.active_path(disk.node_id)
            assert all(node.startswith(f"{pod_prefix}-") for node in path)

    def test_validates(self):
        # Reachability is pod-local by design; disks cannot reach hosts
        # in other pods, so full-rack reachability is not required.
        fabric = rack_fabric(2)
        report = validate_fabric(fabric, require_full_reachability=False)
        assert report.ok, report.errors
        assert report.min_reachable_hosts == 4

    def test_rejects_zero_pods(self):
        with pytest.raises(FabricError):
            rack_fabric(0)

    def test_benchmark_sizes_exist(self):
        # The alloc_scale sweep sizes: 16 / 240 / 1920 disks.
        assert len(rack_fabric(1).disks) == 16
        assert len(rack_fabric(15).disks) == 240


class TestBenchmarkSuite:
    def test_available_names(self):
        names = available_benchmarks()
        assert "alloc_scale" in names
        assert "kernel_throughput" in names
        assert "figure5" in names

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            run_benchmark("nope")

    def test_alloc_scale_smoke_record(self):
        record = run_benchmark("alloc_scale", repeat=1, seed=7, smoke=True)
        assert record["schema_version"] == 3
        assert record["experiment"] == "alloc_scale"
        assert record["wall_seconds"] > 0
        (size,) = record["sizes"]
        assert size["disks"] == 16
        assert size["opt_warm_seconds"] > 0
        assert size["naive_seconds"] > 0
        # The benchmark cross-checks optimized vs naive internally.
        assert size["max_rel_diff_vs_naive"] < 1e-9

    def test_kernel_throughput_record(self):
        record = run_benchmark("kernel_throughput", repeat=1, smoke=True)
        assert record["sim_events"] == 20_000.0
        assert record["events_per_second_fast"] > 0
        assert record["events_per_second_instrumented"] > 0

    def test_experiment_bench_settles_for_sim_events(self):
        # figure5 declares its settle as its smoke size.
        record = bench_experiment("figure5", repeat=1, smoke=True)
        assert record["sim_events"] > 0
        assert record["counters"]["fabric.allocations"] > 0
        assert record["params"] == {"settle_seconds": 12.0}

    def test_append_record_accumulates(self, tmp_path):
        record = {"schema_version": 1, "experiment": "alloc_scale", "wall_seconds": 1}
        path = append_record(tmp_path, record)
        append_record(tmp_path, record)
        history = json.loads(path.read_text())
        assert len(history) == 2

    @pytest.mark.parametrize(
        "damage",
        [lambda text: text[: len(text) // 2], lambda text: '{"records": []}\n'],
        ids=["truncated", "json-object"],
    )
    def test_append_record_refuses_damaged_history(self, tmp_path, damage):
        record = {"schema_version": 3, "experiment": "alloc_scale", "wall_seconds": 1}
        path = append_record(tmp_path, record)
        append_record(tmp_path, record)
        damaged = damage(path.read_text())
        path.write_text(damaged)
        with pytest.raises(ValueError, match="BENCH_alloc_scale.json"):
            append_record(tmp_path, record)
        assert path.read_text() == damaged


class TestBenchCli:
    def test_bench_smoke(self, capsys):
        assert cli_main(["bench", "alloc_scale", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "alloc_scale" in out and "16 disks" in out

    def test_bench_json(self, capsys):
        assert cli_main(["bench", "kernel_throughput", "--smoke", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["experiment"] == "kernel_throughput"

    def test_bench_unknown(self, capsys):
        assert cli_main(["bench", "nope"]) == 2

    def test_bench_writes_records(self, tmp_path, capsys):
        assert (
            cli_main(
                ["bench", "alloc_scale", "--smoke", "--out-dir", str(tmp_path)]
            )
            == 0
        )
        history = json.loads((tmp_path / "BENCH_alloc_scale.json").read_text())
        assert history[0]["experiment"] == "alloc_scale"

    def test_bench_records_figure5(self, tmp_path, capsys):
        argv = ["bench", "figure5", "--smoke", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        history = json.loads((tmp_path / "BENCH_figure5.json").read_text())
        assert isinstance(history, list) and len(history) == 1
        record = history[0]
        assert record["schema_version"] == 3
        assert record["experiment"] == "figure5"
        assert record["wall_seconds"] > 0
        assert record["sim_events"] > 0
        assert record["counters"]["fabric.allocations"] > 0

    def test_bench_appends_to_existing_history(self, tmp_path, capsys):
        for _ in range(2):
            assert cli_main(["bench", "figure5", "--out-dir", str(tmp_path)]) == 0
        history = json.loads((tmp_path / "BENCH_figure5.json").read_text())
        assert len(history) == 2

    def test_bench_smoke_records_gateway_slo(self, tmp_path, capsys):
        argv = ["bench", "gateway_slo", "--smoke", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "events: 18544 sim events" in out
        assert "anchors: 4 of 4 hold" in out
        (record,) = json.loads((tmp_path / "BENCH_gateway_slo.json").read_text())
        assert record["schema_version"] == 3
        assert record["experiment"] == "gateway_slo"
        assert record["smoke"] is True
        assert record["params"] == {"duration": 60.0, "energy": False}
        assert record["anchors"] and all(record["anchors"].values())
        # Exact for the code and the default seed, on any machine.
        assert record["sim_events"] == 18544
        assert record["counters"]["gateway.completed"] > 0
        assert record["counters"]["gateway.batches"] > 0

    def test_bench_smoke_records_shardstore_small_objects(self, tmp_path, capsys):
        argv = [
            "bench", "shardstore_small_objects", "--smoke", "--seed", "42",
            "--out-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        path = tmp_path / "BENCH_shardstore_small_objects.json"
        (record,) = json.loads(path.read_text())
        assert record["smoke"] is True
        assert record["params"] == {"num_objects": 400, "num_gets": 80, "seed": 42}
        assert record["anchors"] and all(record["anchors"].values())
        assert record["counters"]["shardstore.acked"] > 0
