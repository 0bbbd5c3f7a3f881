"""Record-shape and error-path checks for the benchmark recorder.

The rest of the recorder's behaviour (writing and appending
``BENCH_<name>.json``, the experiment smoke records) is exercised through
``repro bench`` in ``tests/test_rack_scale.py::TestBenchCli``.
"""

from repro.benchmarks import run_benchmark, suite
from repro.cli import main as cli_main
from repro.experiments.base import Experiment, ExperimentRegistry, ExperimentResult


def test_kernel_throughput_record_shape():
    record = run_benchmark("kernel_throughput", repeat=2, smoke=True)
    assert record["schema_version"] == 3
    assert record["experiment"] == "kernel_throughput"
    assert record["events_per_second_fast"] > 0
    assert record["events_per_second_eventpath"] > 0
    assert record["events_per_second_instrumented"] > 0
    assert record["wall_seconds"] >= record["wall_seconds_best"]
    assert record["calibration_s"] > 0  # the gate scales its floor by it


def test_benchmark_rejects_unknown_experiment(tmp_path, capsys):
    assert cli_main(["bench", "nope", "--out-dir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_smoke_calibration_is_read_around_every_repeat(monkeypatch):
    log = []
    readings = iter([0.012, 0.009, 0.015, 0.011])

    def calibration_s():
        log.append("calibrate")
        return next(readings)

    def build(size):
        log.append(f"run {size}")
        return ExperimentResult(obs={"counters": {"sim.events": 5}})

    registry = ExperimentRegistry()
    registry.register(
        Experiment("scripted", "-", "-", build, params={"size": 10}, smoke={"size": 1})
    )
    monkeypatch.setattr(suite, "EXPERIMENTS", registry)
    monkeypatch.setattr(suite, "calibration_s", calibration_s)
    record = run_benchmark("scripted", repeat=3, smoke=True)
    assert log == ["calibrate", "run 1"] * 3 + ["calibrate"]
    assert record["calibration_s"] == 0.009
    assert record["params"] == {"size": 1} and record["sim_events"] == 5
