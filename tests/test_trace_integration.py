"""End-to-end tracing through the full stack.

Property under test — the *attribution identity*: for every traced
gateway request, the phase segments stamped across gateway admission,
power accounting, batching, ClientLib, iSCSI, and the disk mechanical
model partition ``[start, end]`` exactly, so the per-component
durations sum to the measured end-to-end latency.  Checked on a clean
batch/FIFO run, under a mid-batch host crash with remount, and across
a double run for byte-identical canonical exports.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.experiments import gateway_slo
from repro.gateway import (
    Gateway,
    GatewayConfig,
    ObjectRef,
    ReadObject,
    TenantSpec,
    mount_gateway_spaces,
)
from repro.obs import (
    COMPONENTS,
    CriticalPathAnalyzer,
    RequestTracer,
    export_chrome_trace,
    export_trace_jsonl,
)
from repro.units import MiB

FIXTURES = Path(__file__).parent / "fixtures"

TENANT = TenantSpec(name="t0", weight=1.0, slo_seconds=600.0, max_queue_depth=64)


def build_traced(seed=13, **config_kwargs):
    tracer = RequestTracer()
    dep = build_deployment(config=DeploymentConfig(seed=seed), tracer=tracer)
    dep.settle(15.0)
    objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
    for disk_id in sorted(dep.disks):
        dep.disks[disk_id].spin_down()
    gateway = Gateway(
        dep.sim, (TENANT,), GatewayConfig(scheduler="batch", **config_kwargs)
    )
    gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
    gateway.start()
    return tracer, dep, gateway, objects, spaces


def drain(dep, gateway, cap=300.0):
    deadline = dep.sim.now + cap
    dep.sim.run(until=dep.sim.now + 1.0)
    while not gateway.drained() and dep.sim.now < deadline:
        dep.sim.run(until=dep.sim.now + 5.0)
    assert gateway.drained(), "gateway failed to drain"


def assert_identity(tracer):
    analyzer = CriticalPathAnalyzer()
    requests = [ctx for ctx in tracer.completed if ctx.kind == "request"]
    assert requests, "run produced no traced requests"
    for ctx in requests:
        report = analyzer.analyze(ctx)
        assert report["identity_ok"], (
            f"trace {ctx.trace_id}: components sum to "
            f"{sum(report['components'].values())}, latency {report['latency']}"
        )
        assert set(report["components"]) <= set(COMPONENTS)
        if ctx.segments:
            # Segments are a gap-free, ordered partition of [start, end].
            assert ctx.segments[0].start == ctx.start
            assert ctx.segments[-1].end == ctx.end
            for before, after in zip(ctx.segments, ctx.segments[1:]):
                assert before.end == after.start
        else:
            # Instant lifecycles (e.g. admission rejections) carry no
            # segments; the identity degenerates to 0 == 0.
            assert ctx.latency == 0.0
    return requests


def test_clean_run_attribution_identity():
    tracer, dep, gateway, objects, spaces = build_traced()
    target = objects[0]
    requests = []

    def burst():
        for i in range(4):
            requests.append(gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB))))

    dep.sim.defer(0.0, burst)
    drain(dep, gateway)
    traced = assert_identity(tracer)
    assert len(traced) == 4
    # A cold read on a spun-down disk must attribute real time to the
    # power/mechanical path somewhere in the batch.
    totals = CriticalPathAnalyzer().aggregate(traced)["components"]
    assert totals.get("spinup", 0.0) + totals.get("disk_queue", 0.0) > 0.0
    assert totals.get("transfer", 0.0) > 0.0
    for ctx in traced:
        assert ctx.tenant == "t0"
        assert ctx.status == "ok"
        assert ctx.attrs["slo_missed"] is False


def test_fault_free_cold_read_charges_spinup_not_failover():
    """Spin-up is a delay, not a failure: with no fault injected, the
    cold start is charged to ``spinup`` and nothing to ``failover``."""
    tracer, dep, gateway, objects, spaces = build_traced()
    target = objects[0]
    requests = []
    dep.sim.defer(0.0, lambda: requests.append(
        gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))))
    drain(dep, gateway)
    (traced,) = assert_identity(tracer)
    components = CriticalPathAnalyzer().analyze(traced)["components"]
    assert components.get("spinup", 0.0) > 0.0
    assert components.get("failover", 0.0) == 0.0
    assert spaces[target.space_id].stats.remounts == 0
    assert not any(e.name == "iscsi.session_error" for e in traced.events)


def test_mid_batch_crash_remount_attribution_identity():
    """The hard case: the endpoint dies mid-batch, the ClientLib times
    out, invalidates the doomed attempt's scope, remounts, and retries.
    The stale server-side process must stamp nothing, and the identity
    must still hold with the dead time attributed to failover."""
    tracer, dep, gateway, objects, spaces = build_traced()
    target = objects[0]
    host = dep.host_of_disk(target.disk_id)
    assert host is not None
    requests = []

    def burst():
        for i in range(6):
            requests.append(gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB))))

    dep.sim.defer(0.0, burst)
    # Mid spin-up: the target has sent NOT READY when it dies, so the
    # client times out at ready + 3 s and remounts.
    dep.sim.run(until=dep.sim.now + 4.0)
    assert gateway.outstanding() > 0, "crash must land mid-batch"
    dep.crash_host(host)
    drain(dep, gateway)

    assert gateway.stats.completed == 6
    traced = assert_identity(tracer)
    assert len(traced) == 6
    space = spaces[target.space_id]
    assert space.stats.remounts >= 1
    # The recovery cost is visible in the attribution and on the event
    # stream of at least one affected request.
    totals = CriticalPathAnalyzer().aggregate(traced)["components"]
    assert totals.get("failover", 0.0) > 0.0
    event_names = {e.name for ctx in traced for e in ctx.events}
    assert "iscsi.session_error" in event_names
    assert "clientlib.remounted" in event_names
    # The master's failover shows up as a finished system-kind trace.
    system = [ctx for ctx in tracer.completed if ctx.kind == "system"]
    assert any(ctx.name == "master.failover" and ctx.status == "ok" for ctx in system)


def test_double_run_trace_exports_are_byte_identical():
    """Same seed, tracing armed twice: the canonical JSONL and Chrome
    exports must match byte for byte (satellite: trace determinism)."""
    exports = []
    for _ in range(2):
        tracer = RequestTracer()
        gateway_slo.run_point("batch", seed=11, duration=20.0, tracer=tracer)
        exports.append(
            (
                export_trace_jsonl(tracer.completed),
                export_chrome_trace(tracer.completed, tracer.instants),
            )
        )
    assert exports[0][0] == exports[1][0], "JSONL export differs across replays"
    assert exports[0][1] == exports[1][1], "Chrome export differs across replays"
    assert exports[0][0], "export was empty"


def test_traced_run_point_summary_and_slo_section():
    tracer = RequestTracer()
    summary = gateway_slo.run_point("batch", seed=11, duration=20.0, tracer=tracer)
    trace = summary["trace"]
    assert trace["completed"] == len(tracer.completed)
    assert trace["attribution"]["identity_failures"] == 0
    assert trace["attribution"]["traces"] > 0
    assert set(trace["slo"]["tenants"]) == {"archival", "interactive"}
    # Monitor and recorder were detached at the end of the run, so the
    # tracer can be reused on another deployment without leaking sinks.
    assert tracer._sinks == []
    assert tracer._instant_sinks == []


def test_rejected_requests_are_traced_as_rejected():
    tracer, dep, gateway, objects, spaces = build_traced()
    target = objects[0]
    done = []

    def flood():
        for i in range(TENANT.max_queue_depth + 8):
            try:
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))
            except Exception:
                pass
        done.append(True)

    dep.sim.defer(0.0, flood)
    dep.sim.run(until=dep.sim.now + 0.5)
    assert done
    rejected = [ctx for ctx in tracer.completed if ctx.status == "rejected"]
    assert rejected, "overflow must produce rejected traces"
    for ctx in rejected:
        assert ctx.latency == 0.0
        assert any(e.name == "admission.rejected" for e in ctx.events)
    drain(dep, gateway, cap=600.0)
    assert_identity(tracer)


def test_cli_trace_json_matches_golden_fixture(capsys):
    """`repro trace --json` is replay-stable: its canonical JSON output
    is pinned as a golden file (regenerate with
    ``python -m repro trace --json --duration 20 --seed 11``)."""
    from repro.cli import main

    status = main(["trace", "--json", "--duration", "20", "--seed", "11"])
    assert status == 0
    output = capsys.readouterr().out.strip()
    document = json.loads(output)
    golden_path = FIXTURES / "trace_cli_golden.json"
    golden = json.loads(golden_path.read_text())
    assert document == golden
    # Byte-level canonical match, not just structural equality.
    assert output == golden_path.read_text().strip()
    assert document["attribution"]["identity_failures"] == 0
