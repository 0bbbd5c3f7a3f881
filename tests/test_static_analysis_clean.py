"""CI gate: the tree itself must pass its own lint (DET + UNIT + PROC).

This keeps ``python -m repro lint src/repro`` at zero unsuppressed
findings as part of the default pytest run, and checks the standalone
``scripts/run_static_analysis.py`` entrypoint's exit-status contract:
the human-readable report, the machine-readable ``lint-summary`` line,
and the ``LINT_BASELINE.json`` suppression gate.  The mypy pass runs
only when mypy is installed (the container may not ship it); the
script skips it gracefully either way.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Linter

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "run_static_analysis.py"
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _load_script_module():
    spec = importlib.util.spec_from_file_location("run_static_analysis", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_has_zero_unsuppressed_findings():
    report = Linter().lint_paths([str(SRC_REPRO)])
    assert report.ok, "\n" + report.render(audit=True)


def test_script_exits_zero_on_clean_tree():
    completed = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_script_exits_nonzero_on_findings():
    completed = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--no-mypy",
            str(FIXTURES / "det001_bad.py"),
        ],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 1
    assert "DET001" in completed.stdout


def test_script_audit_lists_suppressions():
    completed = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--no-mypy",
            "--audit",
            str(FIXTURES / "suppressed.py"),
        ],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "Suppressions in effect" in completed.stdout


def _summary_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("lint-summary: "):
            return json.loads(line[len("lint-summary: ") :])
    raise AssertionError(f"no lint-summary line in:\n{stdout}")


def test_script_emits_machine_readable_summary():
    completed = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--no-mypy",
            str(FIXTURES / "det001_bad.py"),
            str(FIXTURES / "proc002_bad.py"),
        ],
        capture_output=True,
        text=True,
    )
    summary = _summary_line(completed.stdout)
    assert summary["files_checked"] == 2
    assert summary["by_rule"]["DET001"] >= 1
    assert summary["by_rule"]["PROC002"] >= 1


def test_lint_baseline_is_committed_and_tree_is_within_it():
    baseline_path = REPO_ROOT / "LINT_BASELINE.json"
    assert baseline_path.exists(), "LINT_BASELINE.json must be committed"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    allowed = baseline["suppressed_by_rule"]
    current = Linter().lint_paths([str(SRC_REPRO)]).suppressed_by_rule()
    for rule_id, count in current.items():
        assert count <= int(allowed.get(rule_id, 0)), (
            f"{rule_id}: {count} suppression(s) exceeds baseline"
        )


def test_baseline_gate_fails_on_new_suppressions(tmp_path):
    module = _load_script_module()
    report = Linter().lint_paths([str(FIXTURES / "suppressed.py")])
    assert report.suppressed_by_rule()  # the fixture has waivers
    empty = tmp_path / "baseline.json"
    empty.write_text(json.dumps({"suppressed_by_rule": {}}), encoding="utf-8")
    assert module.check_lint_baseline(report, update=False, baseline_path=empty) == 1


def test_baseline_gate_passes_at_or_below_baseline(tmp_path):
    module = _load_script_module()
    report = Linter().lint_paths([str(FIXTURES / "suppressed.py")])
    path = tmp_path / "baseline.json"
    assert module.check_lint_baseline(report, update=True, baseline_path=path) == 0
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written["suppressed_by_rule"] == report.suppressed_by_rule()
    assert module.check_lint_baseline(report, update=False, baseline_path=path) == 0


def test_baseline_gate_skips_when_file_missing(tmp_path):
    module = _load_script_module()
    report = Linter().lint_paths([str(FIXTURES / "suppressed.py")])
    missing = tmp_path / "nope.json"
    assert module.check_lint_baseline(report, update=False, baseline_path=missing) == 0


def _smoke_record(**changes):
    record = {
        "experiment": "gateway_slo",
        "smoke": True,
        "params": {"duration": 60.0, "energy": False},
        "wall_seconds": 0.4,
        "sim_events": 48004.0,
        "counters": {"iscsi.session_errors": 0.0},
        "anchors": {"batch_fewer_spin_ups": True, "no_requests_lost": True},
    }
    record.update(changes)
    return record


@pytest.mark.parametrize(
    "changes, status, verdict",
    [
        ({}, 0, "anchors: 2 of 2 hold OK"),
        (
            {"sim_events": 48004.0 * 1.03},
            1,
            "events: 49444 (baseline 48004, no rise allowed) REGRESSION",
        ),
        # Event counts are exact for the code and seed: one more fails.
        (
            {"sim_events": 48005.0},
            1,
            "events: 48005 (baseline 48004, no rise allowed) REGRESSION",
        ),
        (
            {"sim_events": 48003.0},
            0,
            "events: 48003 (baseline 48004, no rise allowed) OK",
        ),
        (
            {"counters": {"iscsi.session_errors": 174.0}},
            1,
            "session errors: 174 REGRESSION",
        ),
        (
            {"anchors": {"batch_fewer_spin_ups": True, "no_requests_lost": False}},
            1,
            "anchors: 1 of 2 hold FAILED: no_requests_lost",
        ),
    ],
    ids=[
        "passing",
        "events-plus-3pct",
        "events-plus-one",
        "events-minus-one",
        "session-errors",
        "false-anchor",
    ],
)
def test_smoke_gate_checks_events_and_anchors(
    tmp_path, capsys, changes, status, verdict
):
    module = _load_script_module()
    baseline = tmp_path / "BENCH_gateway_slo.json"
    # The latest record ran other params, so the gate must skip it.
    other = _smoke_record(sim_events=1.0, params={"duration": 8.0, "energy": False})
    baseline.write_text(json.dumps([_smoke_record(), other]))
    record = _smoke_record(**changes)
    assert module.check_smoke_record(record, baseline, wall_factor=1.1) == status
    out = capsys.readouterr().out
    assert "wall: 0.4s (baseline 0.4s, limit 0.84s = 1.1x + 0.4s) OK" in out
    assert verdict in out


@pytest.mark.parametrize(
    "base_wall, wall, status, verdict",
    [
        (0.1, 0.2, 0, "wall: 0.2s (baseline 0.1s, limit 0.21s = 1.1x + 0.1s) OK"),
        # Inside the old 1.1x + 0.5 s (0.61 s): a threefold slowdown.
        (0.1, 0.3, 1, "wall: 0.3s (baseline 0.1s, limit 0.21s = 1.1x + 0.1s) REGRESSION"),
        (0.8, 1.3, 0, "wall: 1.3s (baseline 0.8s, limit 1.38s = 1.1x + 0.5s) OK"),
    ],
    ids=["twofold", "threefold", "grace-0.5s"],
)
def test_smoke_gate_grace_is_at_most_the_recorded_wall(
    tmp_path, capsys, base_wall, wall, status, verdict
):
    module = _load_script_module()
    baseline = tmp_path / "BENCH_gateway_slo.json"
    baseline.write_text(json.dumps([_smoke_record(wall_seconds=base_wall)]))
    record = _smoke_record(wall_seconds=wall)
    assert module.check_smoke_record(record, baseline, wall_factor=1.1) == status
    assert verdict in capsys.readouterr().out


@pytest.mark.parametrize(
    "base_calibration, wall, status, verdict",
    [
        # The fixed loop runs 2x slower than when the record was taken,
        # so the record's 0.1 s counts as 0.2 s: the limit is 2.1x that.
        (0.006, 0.2, 0, "wall: 0.2s (baseline 0.1s x 2.00 (calibration 0.012s / 0.006s, at least 1) = 0.2000s, limit 0.42s = 1.1x + 0.2s) OK"),
        (0.006, 0.4, 0, "wall: 0.4s (baseline 0.1s x 2.00 (calibration 0.012s / 0.006s, at least 1) = 0.2000s, limit 0.42s = 1.1x + 0.2s) OK"),
        (0.006, 0.44, 1, "wall: 0.44s (baseline 0.1s x 2.00 (calibration 0.012s / 0.006s, at least 1) = 0.2000s, limit 0.42s = 1.1x + 0.2s) REGRESSION"),
        # A faster machine does not shrink the record's wall.
        (0.024, 0.2, 0, "wall: 0.2s (baseline 0.1s x 1.00 (calibration 0.012s / 0.024s, at least 1) = 0.1000s, limit 0.21s = 1.1x + 0.1s) OK"),
        # A record without a calibration gates unscaled.
        (None, 0.4, 1, "wall: 0.4s (baseline 0.1s, limit 0.21s = 1.1x + 0.1s) REGRESSION"),
    ],
    ids=[
        "machine-2x-wall-2x",
        "machine-2x-wall-4x",
        "machine-2x-wall-4.4x",
        "machine-faster",
        "record-uncalibrated",
    ],
)
def test_smoke_gate_scales_the_recorded_wall_by_calibration(
    tmp_path, capsys, base_calibration, wall, status, verdict
):
    module = _load_script_module()
    baseline = tmp_path / "BENCH_gateway_slo.json"
    base = _smoke_record(wall_seconds=0.1)
    if base_calibration is not None:
        base["calibration_s"] = base_calibration
    baseline.write_text(json.dumps([base]))
    record = _smoke_record(wall_seconds=wall, calibration_s=0.012)
    assert module.check_smoke_record(record, baseline, wall_factor=1.1) == status
    assert verdict in capsys.readouterr().out


@pytest.mark.parametrize(
    "base_calibration, rate, status, verdict",
    [
        # The fixed loop runs 2x slower than when the record was taken:
        # the floor halves, from 200k to 100k ev/s.
        (0.006, 100_000.0, 0, "fast path: 100000 ev/s (baseline 1000000 ev/s, floor 100000 ev/s = baseline / 5 / 2.00 (calibration 0.012s / 0.006s, at least 1)) OK"),
        (0.006, 99_000.0, 1, "fast path: 99000 ev/s (baseline 1000000 ev/s, floor 100000 ev/s = baseline / 5 / 2.00 (calibration 0.012s / 0.006s, at least 1)) REGRESSION"),
        # A faster machine does not raise the floor.
        (0.024, 200_000.0, 0, "fast path: 200000 ev/s (baseline 1000000 ev/s, floor 200000 ev/s = baseline / 5 / 1.00 (calibration 0.012s / 0.024s, at least 1)) OK"),
        # A record without a calibration is not scaled.
        (None, 150_000.0, 1, "fast path: 150000 ev/s (baseline 1000000 ev/s, floor 200000 ev/s = baseline / 5) REGRESSION"),
    ],
    ids=["machine-2x", "machine-2x-below", "machine-faster", "record-uncalibrated"],
)
def test_kernel_gate_scales_the_floor_by_calibration(
    tmp_path, capsys, base_calibration, rate, status, verdict
):
    module = _load_script_module()
    baseline = tmp_path / "BENCH_kernel_throughput.json"
    base = {"experiment": "kernel_throughput", "events_per_second_fast": 1_000_000.0}
    if base_calibration is not None:
        base["calibration_s"] = base_calibration
    baseline.write_text(json.dumps([base]))
    record = {"events_per_second_fast": rate, "calibration_s": 0.012}
    assert module.check_kernel_record(record, baseline) == status
    assert verdict in capsys.readouterr().out


def test_smoke_gate_skips_comparison_when_file_missing(tmp_path, capsys):
    module = _load_script_module()
    missing = tmp_path / "BENCH_gateway_slo.json"
    assert module.check_smoke_record(_smoke_record(), missing, wall_factor=1.1) == 0
    out = capsys.readouterr().out
    assert "no committed smoke record in BENCH_gateway_slo.json" in out
    assert "wall:" not in out and "events:" not in out


def test_control_plane_gate_names_the_kind_that_moved(monkeypatch, capsys):
    # A pin that trades 100 pings for 100 replies keeps the total, so
    # only the count by kind can fail it.
    module = _load_script_module()
    pinned = dict(module.IDLE_SENDS)
    pinned["coord.ping_session"] += 100
    pinned["rpc_response"] -= 100
    monkeypatch.setattr(module, "IDLE_SENDS", pinned)
    assert module.run_control_plane_gate() == 1
    out = capsys.readouterr().out
    assert "3800 sends (pinned 3800) CHANGED" in out
    assert "  coord.ping_session: 300 sends (pinned 400)" in out
    assert "  rpc_response: 1900 sends (pinned 1800)" in out
    assert "master.heartbeat" not in out


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_mypy_strict_packages_clean():
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO_ROOT / "pyproject.toml"),
            str(SRC_REPRO / "sim"),
            str(SRC_REPRO / "analysis"),
            str(SRC_REPRO / "obs"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
