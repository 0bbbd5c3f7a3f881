#!/usr/bin/env python
"""Run the repro linter (and mypy, when available) over the tree.

The linter applies all three rule families — determinism (DET), units
(UNIT) and sim-process protocol (PROC).  Exit status is nonzero when
any unsuppressed finding or type error is reported, so this doubles as
the CI gate (``tests/test_static_analysis_clean.py`` runs the same
checks inside the default pytest run).  The mypy pass applies the
pyproject strict profile to ``repro.sim``, ``repro.analysis``,
``repro.obs``, ``repro.power``, ``repro.fabric``, ``repro.gateway``
and ``repro.shardstore``.

After the human-readable report the script emits one machine-readable
``lint-summary: {...}`` line (rule -> finding/suppression counts), and
default-path runs gate inline-suppression growth against the committed
``LINT_BASELINE.json``: a rule whose suppression count exceeds the
baseline fails the run until the waiver is justified and the baseline
regenerated with ``--update-baseline``.

Default-path invocations also run a perf smoke (skipped when explicit
paths are passed, or with ``--no-perf``).  The ``alloc_scale`` and
``kernel_throughput`` microbenchmarks run at their smoke sizes and fail
on a >5x wall-clock regression against the committed ``BENCH_*.json``
baselines; the kernel's floor is first divided by how much slower the
machine runs a fixed loop now than when its record was taken (both
records' ``calibration_s``, at least 1).  Then one loop runs every
experiment that declares ``smoke`` sizes (``repro bench <name> --smoke
--repeat 3``, which reads
``calibration_s`` before every repeat and after the last and keeps the
fastest reading) and checks it against the latest smoke record with the
same params in ``BENCH_<name>.json``: the median wall time within 5x
the record's plus a grace of 0.5 s or the record's own wall, whichever
is less (1.1x for ``gateway_slo``, whose
smoke runs with the tracer and ledger disarmed — the NULL_TRACER no-op
proof), the record's wall first scaled by how much slower the machine
runs a fixed loop now than when the record was taken (both records'
``calibration_s``; never scaled down, and a record without one is not
scaled), ``sim_events`` no more than the record's (an exact count for
the code and seed, so it does not depend on the machine), no iSCSI
session error (no smoke injects a fault, so one would be a storm of I/O
timeouts), and every anchor true.  Each experiment prints one wall, one
events, one session-errors and one anchors line.

Default-path runs finish with an energy-ledger leg: one small
gateway_slo point with the ledger armed must satisfy the DESIGN §15
conservation identity, its non-overhead accounts times
``PSU_EFFICIENCY`` must equal the summary's DC ``energy_joules``, and
an identical rerun must produce a byte-identical canonical energy
export.  The unarmed-overhead half of that gate rides the
``gateway_slo`` smoke gate, which runs with the ledger disarmed.

Default-path runs also run a control-plane leg (even with
``--no-perf``: it counts, it does not time): a deployment settled and
left idle for 100 sim-s must send exactly ``IDLE_SENDS`` messages of
each method or kind, in exactly its scenario's ``IDLE_EVENTS`` kernel
events (the rise in ``Simulator.events``), and so must one that also
mounted a gateway client's spaces (a mounted ClientLib adds no
traffic).  Both counts are exact for the code, so any change to the
timers shows, and the leg prints every kind whose count moved.

Default-path runs also run the benchmark's self-tests (again even with
``--no-perf``: they check correctness, not speed): ``python -m pytest
bench -q`` in a subprocess from the repository root, about 7 s.
``bench/tracing.py`` wraps program methods by name and its traced runs
must reproduce the plain runs' fingerprints, while the default pytest
run collects only ``tests/`` — so this leg is what catches a renamed
method or a traced run that diverges.

Usage::

    python scripts/run_static_analysis.py               # lint src/repro
    python scripts/run_static_analysis.py path/to/code  # lint elsewhere
    python scripts/run_static_analysis.py --no-mypy     # linter only
    python scripts/run_static_analysis.py --no-perf     # skip perf smoke
    python scripts/run_static_analysis.py --audit       # list suppressions
    python scripts/run_static_analysis.py --update-baseline  # accept suppressions
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_REGRESSION_FACTOR = 5.0
#: The gateway_slo smoke gate is much tighter than the generic 5x
#: factor: with tracing off, every trace call site hits the NULL_TRACER
#: no-op path.  Its limit is this factor times the calibration-scaled
#: record plus the grace, which is at most that record, so for a record
#: of 0.31 s the limit is 2.1x the record, not 1.1x.
GATEWAY_TRACING_OFF_FACTOR = 1.1
#: Experiment smoke gates: wall factor per experiment (default
#: PERF_REGRESSION_FACTOR) plus an absolute grace against scheduler
#: noise, capped at the record's own wall so that it cannot dwarf the
#: factor.  The exact ``sim_events`` count may not rise at all.  Each
#: gate run takes the median of SMOKE_REPEAT runs, as its record did.
SMOKE_WALL_FACTORS = {"gateway_slo": GATEWAY_TRACING_OFF_FACTOR}
SMOKE_WALL_GRACE_SECONDS = 0.5
SMOKE_REPEAT = 3
#: The ledger's disk books and the gateway's residency-based disk
#: energy are two routes to the same exact integral; they may differ
#: only by float summation order.
ENERGY_CROSS_CHECK_REL = 1e-9
#: Idle control plane: ``build_deployment()``, ``settle()``, 100 sim-s.
#: Messages, by RPC method or message kind, are set by the protocol's
#: intervals and must not change; events are what the armed-deadline
#: timers pop for them.
IDLE_SENDS = {
    "coord.append_entries": 800,
    "coord.ping_session": 300,
    "master.heartbeat": 800,
    "rpc_response": 1_900,
}
#: Events by scenario: the mounted one's window starts a second later,
#: so it holds two more election-timer pops, and two RPC deadline pops
#: for calls made while mounting.
IDLE_EVENTS = {"idle": 5_822, "gateway client mounted, idle": 5_826}

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
LINT_BASELINE = REPO_ROOT / "LINT_BASELINE.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis import Linter  # noqa: E402  (needs sys.path tweak first)
from repro.units import MiB  # noqa: E402

#: Space size of the gateway client the second idle scenario mounts.
IDLE_SPACE_BYTES = 64 * MiB


def run_mypy(paths: List[str]) -> int:
    """Run mypy with the pyproject config; 0 when clean or unavailable."""
    if importlib.util.find_spec("mypy") is None:
        print("mypy: not installed, skipping type check")
        return 0
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--config-file",
        str(REPO_ROOT / "pyproject.toml"),
        *paths,
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT)
    return completed.returncode


def print_lint_summary(report) -> None:
    """One machine-readable line: rule -> finding/suppression counts."""
    data = report.to_dict()
    summary = {
        "files_checked": data["files_checked"],
        "by_rule": data["by_rule"],
        "suppressed_by_rule": data["suppressed_by_rule"],
    }
    print("lint-summary: " + json.dumps(summary, sort_keys=True))


def check_lint_baseline(report, update: bool, baseline_path: Path = LINT_BASELINE) -> int:
    """Gate inline-suppression growth against the committed baseline.

    Unsuppressed findings already fail the run outright, so this gate
    watches the other escape hatch: a rule whose ``# repro-lint:
    ignore[...]`` count exceeds the committed baseline fails until the
    waiver is justified in review and the baseline regenerated with
    ``--update-baseline``.  Shrinking counts pass (and suggest a
    baseline refresh); a missing baseline file skips the gate loudly.
    """
    current = report.suppressed_by_rule()
    if update:
        baseline_path.write_text(
            json.dumps({"suppressed_by_rule": current}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"lint-baseline: wrote {baseline_path.name}")
        return 0
    if not baseline_path.exists():
        print(f"lint-baseline: {baseline_path.name} missing, gate skipped")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8")).get(
        "suppressed_by_rule", {}
    )
    status = 0
    for rule_id in sorted(current):
        allowed = int(baseline.get(rule_id, 0))
        if current[rule_id] > allowed:
            print(
                f"lint-baseline: {rule_id}: {current[rule_id]} suppression(s) "
                f"exceeds committed baseline of {allowed} — justify the waiver "
                f"and rerun with --update-baseline"
            )
            status = 1
    if status == 0:
        print("lint-baseline: OK")
    return status


def _baseline_alloc_16(history: List[Dict]) -> Optional[Dict]:
    """The 16-disk size entry of the most recent alloc_scale record."""
    for record in reversed(history):
        for size in record.get("sizes", []):
            if size.get("disks") == 16:
                return size
    return None


def check_kernel_record(record: Dict, baseline_path: Path) -> int:
    """Gate the kernel fast path against the latest committed record.

    The floor is that record's ``events_per_second_fast`` over
    PERF_REGRESSION_FACTOR, divided by ``record / baseline``
    calibration when both records carry ``calibration_s`` and that is
    above 1: the rate the baseline would have read on a machine as
    slow as it is now.  A faster reading does not raise the floor, the
    smoke gates' rule.
    """
    baseline = None
    if baseline_path.exists():
        for candidate in reversed(json.loads(baseline_path.read_text())):
            if candidate.get("events_per_second_fast"):
                baseline = candidate
                break
    if baseline is None:
        print("perf: kernel_throughput: no committed baseline, comparison skipped")
        return 0
    rate, base_rate = record["events_per_second_fast"], baseline["events_per_second_fast"]
    calibration = record.get("calibration_s")
    base_calibration = baseline.get("calibration_s")
    scale, scaling = 1.0, ""
    if calibration and base_calibration:
        scale = max(1.0, calibration / base_calibration)
        scaling = (
            f" / {scale:.2f} (calibration {calibration}s / "
            f"{base_calibration}s, at least 1)"
        )
    floor = base_rate / PERF_REGRESSION_FACTOR / scale
    verdict = "OK" if rate >= floor else "REGRESSION"
    print(
        f"perf: kernel_throughput fast path: {rate:.0f} ev/s (baseline "
        f"{base_rate:.0f} ev/s, floor {floor:.0f} ev/s = "
        f"baseline / {PERF_REGRESSION_FACTOR:g}{scaling}) {verdict}"
    )
    return 0 if rate >= floor else 1


def check_smoke_record(record: Dict, baseline_path: Path, wall_factor: float) -> int:
    """Gate one experiment smoke record against its committed history.

    The baseline is the latest record in ``baseline_path`` for the same
    experiment, also a smoke run, with the same ``params``.  When both
    records carry ``calibration_s``, the baseline's wall is first scaled
    by ``record / baseline`` calibration when that is above 1: the wall
    the baseline would have taken on a machine as slow as it is now.  A
    faster reading does not shrink it: the fixed loop's speed swings
    more than a smoke's.  Fails when the wall time exceeds
    ``wall_factor`` x that wall plus SMOKE_WALL_GRACE_SECONDS or that
    wall, whichever is less, when ``sim_events`` exceeds the baseline's
    at all, when ``iscsi.session_errors`` is
    nonzero, or when any anchor is false.  With no baseline the two
    comparisons are skipped loudly; the session errors and anchors are
    checked either way.
    """
    name = record["experiment"]
    baseline = None
    if baseline_path.exists():
        for candidate in reversed(json.loads(baseline_path.read_text())):
            if (
                candidate.get("experiment") == name
                and candidate.get("smoke")
                and candidate.get("params") == record["params"]
            ):
                baseline = candidate
                break
    status = 0
    if baseline is None:
        print(
            f"perf: {name} smoke: no committed smoke record in "
            f"{baseline_path.name}, wall and events comparison skipped"
        )
    else:
        wall, base_wall = record["wall_seconds"], baseline["wall_seconds"]
        calibration = record.get("calibration_s")
        base_calibration = baseline.get("calibration_s")
        scaled, scaling = base_wall, ""
        if calibration and base_calibration:
            # Never below 1: on a shared 2-core machine, 20 back-to-back
            # gateway_slo smokes read the loop at 0.0072-0.0148 s but
            # walls of 0.27-0.38 s, so scaling down for a fast reading
            # put walls at up to 0.82 of their limit (under 0.6 unscaled).
            scale = max(1.0, calibration / base_calibration)
            scaled = base_wall * scale
            scaling = (
                f" x {scale:.2f} (calibration {calibration}s / "
                f"{base_calibration}s, at least 1) = {scaled:.4f}s"
            )
        grace = min(SMOKE_WALL_GRACE_SECONDS, scaled)
        limit = wall_factor * scaled + grace
        verdict = "OK" if wall <= limit else "REGRESSION"
        print(
            f"perf: {name} smoke wall: {wall}s (baseline {base_wall}s{scaling}, "
            f"limit {limit:.2f}s = {wall_factor}x + {grace:.4g}s) {verdict}"
        )
        if wall > limit:
            status = 1
        events, base_events = record["sim_events"], baseline["sim_events"]
        verdict = "OK" if events <= base_events else "REGRESSION"
        print(
            f"perf: {name} smoke events: {events:.0f} (baseline "
            f"{base_events:.0f}, no rise allowed) {verdict}"
        )
        if events > base_events:
            status = 1
    # No smoke injects a fault: a session error is an I/O timeout storm.
    session_errors = record["counters"].get("iscsi.session_errors", 0.0)
    verdict = "OK" if session_errors == 0 else "REGRESSION"
    print(f"perf: {name} smoke session errors: {session_errors:.0f} {verdict}")
    if session_errors:
        status = 1
    anchors = record["anchors"]
    failed = sorted(anchor for anchor, holds in anchors.items() if not holds)
    verdict = f"FAILED: {', '.join(failed)}" if failed else "OK"
    print(
        f"perf: {name} smoke anchors: {len(anchors) - len(failed)} of "
        f"{len(anchors)} hold {verdict}"
    )
    if failed:
        status = 1
    return status


def run_perf_smoke() -> int:
    """Run the microbenchmarks and experiment smokes; flag regressions.

    Compares against the committed BENCH baselines at the repo root.
    Wall-clock timings at the 16-disk size are sub-millisecond, so every
    comparison carries a small absolute grace on top of the 5x factor to
    keep scheduler noise from failing the gate; a genuine algorithmic
    regression clears both easily.
    """
    from repro.benchmarks import run_benchmark
    from repro.experiments import EXPERIMENTS

    status = 0

    record = run_benchmark("alloc_scale", repeat=3, smoke=True)
    current = record["sizes"][0]
    baseline_path = REPO_ROOT / "BENCH_alloc_scale.json"
    if baseline_path.exists():
        baseline = _baseline_alloc_16(json.loads(baseline_path.read_text()))
    else:
        baseline = None
    if baseline is None:
        print("perf: alloc_scale: no committed 16-disk baseline, comparison skipped")
    else:
        for key, grace in (("opt_cold_seconds", 0.025), ("opt_warm_seconds", 0.025)):
            limit = PERF_REGRESSION_FACTOR * baseline[key] + grace
            verdict = "OK" if current[key] <= limit else "REGRESSION"
            print(
                f"perf: alloc_scale 16-disk {key}: {current[key]}s "
                f"(baseline {baseline[key]}s, limit {limit:.4f}s) {verdict}"
            )
            if current[key] > limit:
                status = 1

    record = run_benchmark("kernel_throughput", repeat=3, smoke=True)
    if check_kernel_record(record, REPO_ROOT / "BENCH_kernel_throughput.json") != 0:
        status = 1

    for experiment in EXPERIMENTS:
        if not experiment.smoke:
            continue
        record = run_benchmark(experiment.name, repeat=SMOKE_REPEAT, smoke=True)
        factor = SMOKE_WALL_FACTORS.get(experiment.name, PERF_REGRESSION_FACTOR)
        baseline_path = REPO_ROOT / f"BENCH_{experiment.name}.json"
        if check_smoke_record(record, baseline_path, factor) != 0:
            status = 1
    return status


def run_energy_smoke() -> int:
    """Energy-ledger gate: conservation identity, one disk-energy
    source, deterministic export.

    Runs one small gateway_slo point with the ledger armed and checks
    the DESIGN §15 identity (attributed joules == meter wall-energy
    integral within the auditor tolerance) and that the ledger's
    non-overhead (disk) accounts, converted back to DC by
    ``PSU_EFFICIENCY``, equal the summary's residency-based
    ``energy_joules`` to ``ENERGY_CROSS_CHECK_REL``.  It then reruns the
    identical point and requires the canonical JSON energy exports to
    match byte for byte.  The unarmed-overhead side of the gate is carried by the
    ``gateway_slo`` smoke gate above: it runs with the ledger (and
    tracer) disarmed and is held to GATEWAY_TRACING_OFF_FACTOR = 1.1x its
    calibration-scaled record plus a grace of at most that record.
    """
    from repro.experiments import gateway_slo
    from repro.obs import ACCOUNT_OVERHEAD
    from repro.power.systems import PSU_EFFICIENCY

    status = 0
    exports = []
    for _ in range(2):
        summary = gateway_slo.run_point("batch", duration=8.0, energy=True)
        energy = summary["energy"]
        exports.append(
            json.dumps(energy["export"], sort_keys=True, separators=(",", ":"))
        )
    identity = energy["identity"]
    verdict = "OK" if identity["conserved"] else "VIOLATION"
    print(
        f"energy: conservation identity: wall {identity['wall_joules']:.3f} J, "
        f"residual {identity['residual']:.3e} J "
        f"(tolerance {identity['tolerance']:.3e}) {verdict}"
    )
    if not identity["conserved"]:
        status = 1
    disk_wall = sum(
        joules
        for account, joules in energy["accounts"].items()
        if account != ACCOUNT_OVERHEAD
    )
    dc = summary["energy_joules"]
    cross = abs(disk_wall * PSU_EFFICIENCY - dc) / max(1.0, abs(dc))
    verdict = "OK" if cross <= ENERGY_CROSS_CHECK_REL else "DRIFT"
    print(
        f"energy: ledger disk books x PSU efficiency vs summary "
        f"energy_joules {dc:.3f} J: relative error {cross:.3e} {verdict}"
    )
    if cross > ENERGY_CROSS_CHECK_REL:
        status = 1
    identical = exports[0] == exports[1]
    verdict = "OK" if identical else "MISMATCH"
    print(f"energy: double-run export byte-identical: {verdict}")
    if not identical:
        status = 1
    return status


def run_control_plane_gate() -> int:
    """Idle control-plane gate: exact message counts by kind and exact
    event counts, for a bare deployment and for one with a gateway
    client's spaces mounted."""
    from repro.cluster import build_deployment
    from repro.gateway import mount_gateway_spaces

    status = 0
    for scenario, pinned_events in IDLE_EVENTS.items():
        deployment = build_deployment()
        deployment.settle()
        if scenario != "idle":
            mount_gateway_spaces(deployment, IDLE_SPACE_BYTES)
            deployment.run_to_whole_second()
        network = deployment.network
        send = network.send
        sends: Counter = Counter()

        def counted_send(src: str, dst: str, payload: Any, size: int = 256) -> None:
            sends[payload.get("method", payload["kind"])] += 1
            send(src, dst, payload, size)

        network.send = counted_send  # type: ignore[method-assign]
        sim = deployment.sim
        events_before = sim.events
        sim.run(until=sim.now + 100.0)
        events = sim.events - events_before
        moved = sorted(k for k in set(sends) | set(IDLE_SENDS) if sends[k] != IDLE_SENDS.get(k, 0))
        events_ok = events == pinned_events
        print(
            f"control plane: {scenario} 100 sim-s: {sum(sends.values())} sends "
            f"(pinned {sum(IDLE_SENDS.values())}) {'CHANGED' if moved else 'OK'}, "
            f"{events} events (pinned {pinned_events}) {'OK' if events_ok else 'CHANGED'}"
        )
        for kind in moved:
            print(f"  {kind}: {sends[kind]} sends (pinned {IDLE_SENDS.get(kind, 0)})")
        if moved or not events_ok:
            status = 1
    return status


def run_bench_selftests() -> int:
    """Bench self-test leg: ``python -m pytest bench -q``, one verdict line."""
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    ok = completed.returncode == 0
    if not ok:
        print(completed.stdout + completed.stderr)
    print(
        f"bench self-tests: python -m pytest bench -q exited "
        f"{completed.returncode} {'OK' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--audit", action="store_true", help="list inline suppressions"
    )
    parser.add_argument(
        "--no-mypy", action="store_true", help="skip the mypy pass"
    )
    parser.add_argument(
        "--no-perf", action="store_true", help="skip the perf smoke benchmarks"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite LINT_BASELINE.json from the current suppression counts",
    )
    args = parser.parse_args(argv)

    paths = args.paths or [str(SRC / "repro")]
    report = Linter().lint_paths(paths)
    print(report.render(audit=args.audit))
    print_lint_summary(report)

    status = 0 if report.ok else 1
    # The suppression baseline guards the default tree, not arbitrary paths.
    if not args.paths:
        if check_lint_baseline(report, update=args.update_baseline) != 0:
            status = 1
    if not args.paths and run_control_plane_gate() != 0:
        status = 1
    if not args.paths and run_bench_selftests() != 0:
        status = 1
    if not args.no_mypy:
        mypy_status = run_mypy(paths)
        if mypy_status != 0:
            status = 1
    # The perf smoke guards the default tree, not arbitrary paths.
    if not args.no_perf and not args.paths:
        if run_perf_smoke() != 0:
            status = 1
        if run_energy_smoke() != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
