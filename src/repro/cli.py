"""Command-line interface: run experiments and inspect the models.

Usage::

    python -m repro list                 # available experiments
    python -m repro run table2           # one experiment's report
    python -m repro run figure5 --json   # versioned ExperimentResult JSON
    python -m repro run all              # everything (slow)
    python -m repro cost                 # Table I quick view
    python -m repro validate --hosts 4 --disks-per-leaf 2
    python -m repro lint [paths...]      # determinism linter (src/repro)
    python -m repro check-determinism    # two replays: digests, dumps, results, races
    python -m repro bench alloc_scale    # wall-clock benchmark suite
    python -m repro run gateway_slo      # request tier: batch vs FIFO
    python -m repro bench gateway_slo --smoke  # smoke run: wall, events, anchors
    python -m repro campaign gateway_slo --set load_scale=0.5,1.0,2.0  # load sweep
    python -m repro trace                # traced run + latency attribution
    python -m repro trace --format chrome --out trace.json  # Perfetto file
    python -m repro campaign figure5 --seeds 1,2,3,4 \
        --set settle_seconds=0.0,2.0 --workers 4  # cached sweep grid

``run``, ``validate``, ``check-determinism`` and ``bench`` share the
same ``--json`` / ``--seed`` flags: ``--json`` switches the command's
output to a machine-readable document, ``--seed`` overrides the RNG
seed of any experiment that declares one (others run with their
defaults).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

__all__ = ["main"]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--json`` / ``--seed`` builder for run/validate/check."""
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON document instead of a report",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the RNG seed of experiments that declare one",
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    print("Available experiments:")
    for name in EXPERIMENTS.names():
        experiment = EXPERIMENTS.get(name)
        print(f"  {name:<14} [{experiment.paper_ref}] {experiment.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    names = EXPERIMENTS.names() if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        experiment = EXPERIMENTS.get(name)
        result = experiment.run(**experiment.seed_override(args.seed))
        if args.as_json:
            print(result.to_json())
        else:
            print(f"=== {name} ===")
            print(result.render())
            print()
    return 0


def _cmd_cost(_args: argparse.Namespace) -> int:
    from repro.cost import render_cost_table

    print(render_cost_table())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.fabric import ring_fabric, validate_fabric

    fabric = ring_fabric(
        num_hosts=args.hosts, disks_per_leaf=args.disks_per_leaf, fan_in=args.fan_in
    )
    report = validate_fabric(fabric, require_full_reachability=args.hosts <= 4)
    quirk = validate_fabric(
        fabric,
        require_full_reachability=args.hosts <= 4,
        enforce_intel_quirk=True,
    )
    if args.as_json:
        print(
            json.dumps(
                {
                    "fabric": fabric.name,
                    "disks": len(fabric.disks),
                    "hubs": len(fabric.hubs),
                    "switches": len(fabric.switches),
                    "host_ports": len(fabric.host_ports),
                    "valid": report.ok,
                    "errors": list(report.errors),
                    "notes": list(quirk.warnings),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"fabric: {fabric.name}")
        print(f"  disks={len(fabric.disks)} hubs={len(fabric.hubs)} "
              f"switches={len(fabric.switches)} ports={len(fabric.host_ports)}")
        print(f"  valid: {report.ok}")
        for error in report.errors:
            print(f"  ERROR: {error}")
        for warning in quirk.warnings:
            print(f"  note: {warning}")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import Linter

    paths = args.paths
    if not paths:
        import repro

        paths = [str(Path(repro.__file__).parent)]
    report = Linter().lint_paths(paths)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(audit=args.audit))
    return 0 if report.ok else 1


def _cmd_check_determinism(args: argparse.Namespace) -> int:
    """Run every registered experiment twice in one process, with
    every instrument it declares armed (``detect_races``, ``trace``),
    and compare the execution-order digests, the metric dumps and the
    result JSON documents byte for byte; count the same-timestamp
    races.  A match certifies replay determinism: the second run pops
    the same events in the same order and reports the same numbers,
    whatever the first left behind in the process.  The result JSON
    carries the energy-ledger export of the experiments that arm the
    ledger."""
    from repro.experiments import EXPERIMENTS
    from repro.sim import EventDigest

    failures = 0
    report: Dict[str, Dict] = {}
    for experiment in EXPERIMENTS:
        overrides = {
            flag: True for flag in ("detect_races", "trace") if flag in experiment.params
        }
        overrides.update(experiment.seed_override(args.seed))
        digests: List[str] = []
        dumps: List[str] = []
        documents: List[str] = []
        for _ in range(2):
            with EventDigest().under() as digest:
                result = experiment.run(**overrides)
            digests.append(digest.hexdigest())
            dumps.append(json.dumps(result.obs, sort_keys=True))
            documents.append(result.to_json())
        races = result.raw.get("races", [])
        checks = {
            "digest_identical": digests[0] == digests[1],
            "metrics_identical": dumps[0] == dumps[1],
            "result_identical": documents[0] == documents[1],
        }
        report[experiment.name] = {"digest": digests[0], **checks, "races": len(races)}
        if not all(checks.values()) or races:
            failures += 1
        if args.as_json:
            continue
        print(f"{experiment.name}:")
        print(f"  replay digest: {digests[0][:16]}…  "
              + ("identical across two runs" if checks["digest_identical"]
                 else "MISMATCH: " + digests[1][:16]))
        for label, key in (("metric dump", "metrics_identical"),
                           ("result JSON", "result_identical")):
            verdict = "byte-identical across two runs" if checks[key] else "MISMATCH"
            print(f"  {label}: {verdict}")
        print(f"  same-timestamp races: {len(races)}")
        for race in races:
            print(f"    {race.render()}")
    if args.as_json:
        print(json.dumps({"checks": report, "ok": failures == 0},
                         indent=2, sort_keys=True))
    return 0 if failures == 0 else 1


def _gateway_seed(args: argparse.Namespace) -> int:
    """``--seed``, else gateway_slo's declared seed."""
    from repro.experiments import gateway_slo

    return args.seed if args.seed is not None else gateway_slo.EXPERIMENT.params["seed"]


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced gateway_slo point and export/summarize the traces."""
    from repro.experiments import gateway_slo
    from repro.obs import (
        CriticalPathAnalyzer,
        RequestTracer,
        export_chrome_trace,
        export_trace_jsonl,
    )

    tracer = RequestTracer()
    seed = _gateway_seed(args)
    summary = gateway_slo.run_point(
        args.scheduler,
        tracer=tracer,
        seed=seed,
        duration=args.duration,
        energy=False,
    )
    requests = [ctx for ctx in tracer.completed if ctx.kind == "request"]
    aggregate = CriticalPathAnalyzer().aggregate(requests)
    if args.format == "jsonl":
        output = export_trace_jsonl(tracer.completed)
    elif args.format == "chrome":
        output = export_chrome_trace(tracer.completed, tracer.instants)
    elif args.as_json:
        output = json.dumps(
            {
                "params": {
                    "scheduler": args.scheduler,
                    "seed": seed,
                    "duration": args.duration,
                },
                "completed": summary["completed"],
                "traces": len(tracer.completed),
                "attribution": aggregate,
                "slo": summary["trace"]["slo"],
                "flight_dumps": summary["trace"]["flight_dumps"],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    else:
        lines = [
            f"Traced gateway run: scheduler={args.scheduler} "
            f"duration={args.duration}s",
            f"  requests completed: {summary['completed']}  "
            f"traces: {len(tracer.completed)}  "
            f"instants: {len(tracer.instants)}",
            f"  attribution identity failures: "
            f"{aggregate['identity_failures']}",
            "",
            "Latency attribution (share of traced request time):",
        ]
        shares = aggregate["shares"]
        for component in sorted(shares, key=lambda c: -shares[c]):
            if shares[component] <= 0.0:
                continue
            lines.append(f"  {component:<18} {shares[component]:7.2%}")
        slo = summary["trace"]["slo"]
        lines.append("")
        lines.append("SLO burn rates:")
        for tenant in sorted(slo["tenants"]):
            state = slo["tenants"][tenant]
            lines.append(
                f"  {tenant:<12} objective={state['objective']:.0%} "
                f"burn={state['burn_rate']:.2f} "
                f"{'FIRING' if state['firing'] else 'ok'} "
                f"alerts={state['alerts']}"
            )
        output = "\n".join(lines)
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(output + "\n")
        if not args.as_json:
            print(f"wrote {args.format} export to {args.out}")
    else:
        print(output)
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    """Run one energy-ledgered gateway_slo point and report the books."""
    from repro.experiments import gateway_slo

    seed = _gateway_seed(args)
    summary = gateway_slo.run_point(
        args.scheduler, seed=seed, duration=args.duration, energy=True
    )
    energy = summary["energy"]
    identity = energy["identity"]
    if args.as_json:
        output = json.dumps(
            {
                "params": {
                    "scheduler": args.scheduler,
                    "seed": seed,
                    "duration": args.duration,
                },
                "identity": identity,
                "accounts": energy["accounts"],
                "tiers": energy["tiers"],
                "export": energy["export"],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    else:
        wall = identity["wall_joules"]
        lines = [
            f"Energy attribution: gateway_slo scheduler={args.scheduler} "
            f"duration={args.duration}s",
            f"  wall energy: {wall:.3f} J   "
            f"attributed: {identity['attributed_joules']:.3f} J   "
            f"residual: {identity['residual']:.9f} J "
            f"({'conserved' if identity['conserved'] else 'VIOLATED'})",
            "",
            "Accounts (wall joules):",
        ]
        accounts = energy["accounts"]
        for account in sorted(accounts, key=lambda a: -accounts[a]):
            share = accounts[account] / wall if wall else 0.0
            lines.append(f"  {account:<20} {accounts[account]:12.3f} J {share:7.2%}")
        lines.append("")
        lines.append("Tiers (wall joules by spin-state bucket):")
        for tier, book in sorted(energy["tiers"].items()):
            lines.append(
                f"  {tier:<20} active={book['active']:.1f} "
                f"spinup={book['spinup']:.1f} idle={book['idle']:.1f} "
                f"standby={book['standby']:.1f} total={book['total']:.1f}"
            )
        export = energy["export"]
        blames = export["spin_up_blames"]
        lines.append("")
        lines.append(
            f"Spin-ups blamed: {len(blames)} "
            f"(requests charged: {energy['requests_charged']})"
        )
        requests = export["requests"]
        top = sorted(requests, key=lambda t: -requests[t])[:5]
        for trace_id in top:
            lines.append(f"  trace {trace_id}: {requests[trace_id]:.1f} J")
        output = "\n".join(lines)
    print(output)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run benchmarks; print a summary, or the records as JSON."""
    from pathlib import Path

    from repro.benchmarks import append_record, available_benchmarks, run_benchmark

    names = args.benchmarks or ["alloc_scale", "kernel_throughput"]
    known = set(available_benchmarks())
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(known))}", file=sys.stderr)
        return 2
    records = []
    for name in names:
        record = run_benchmark(
            name, repeat=max(1, args.repeat), seed=args.seed, smoke=args.smoke
        )
        records.append(record)
        if args.out_dir is not None:
            append_record(Path(args.out_dir), record)
        if not args.as_json:
            print(f"{name}: {record['wall_seconds']}s wall")
            for size in record.get("sizes", []):
                print(
                    f"  {size['disks']} disks: opt {size['opt_warm_seconds']}s "
                    f"(cold {size['opt_cold_seconds']}s), naive "
                    f"{size['naive_seconds']}s, speedup {size['speedup_cold']}x "
                    f"cold / {size['speedup_warm']}x warm"
                )
            if "events_per_second_fast" in record:
                print(
                    f"  kernel: {record['events_per_second_fast']:.0f} ev/s fast, "
                    f"{record['events_per_second_eventpath']:.0f} ev/s event path, "
                    f"{record['events_per_second_instrumented']:.0f} ev/s "
                    f"instrumented ({record['fast_path_uplift']}x uplift)"
                )
            if "anchors" in record:
                print(
                    f"  events: {record['sim_events']:.0f} sim events "
                    f"({record['sim_events_per_wall_second']} ev/s)"
                )
                anchors = record["anchors"]
                failed = sorted(a for a, holds in anchors.items() if not holds)
                print(
                    f"  anchors: {len(anchors) - len(failed)} of {len(anchors)} hold"
                    + (f"; FAILED: {', '.join(failed)}" if failed else "")
                )
    if args.as_json:
        print(json.dumps(records, indent=2, sort_keys=True))
    return 0


def _parse_sweep_values(raw: str) -> List[object]:
    """``"0.0,2.0"`` → ``[0.0, 2.0]`` (JSON scalars, else strings)."""
    values: List[object] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        try:
            values.append(json.loads(chunk))
        except ValueError:
            values.append(chunk)
    return values


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Fan one experiment over a seed × sweep grid with cached cells."""
    from pathlib import Path

    from repro.experiments.campaign import (
        CampaignError,
        CampaignSpec,
        run_campaign,
    )

    sweep: Dict[str, List[object]] = {}
    for assignment in args.set or []:
        name, _, raw = assignment.partition("=")
        if not _ or not name or not raw:
            print(f"bad --set {assignment!r}; expected name=v1,v2,…",
                  file=sys.stderr)
            return 2
        if name in sweep:
            print(f"duplicate --set for {name!r}", file=sys.stderr)
            return 2
        sweep[name] = _parse_sweep_values(raw)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    try:
        spec = CampaignSpec.build(args.experiment, seeds=seeds, sweep=sweep)
        report = run_campaign(
            spec,
            cache_dir=Path(args.cache_dir),
            workers=args.workers,
            refresh=args.refresh,
        )
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    anchors_ok = all(
        all((outcome.result.get("anchors") or {}).values())
        for outcome in report.outcomes
    )
    return 0 if anchors_ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="UStore (ICDCS 2015) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=_cmd_list)

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment")
    _add_common_flags(run_parser)
    run_parser.set_defaults(fn=_cmd_run)

    sub.add_parser("cost", help="print Table I").set_defaults(fn=_cmd_cost)

    validate_parser = sub.add_parser("validate", help="validate a ring fabric design")
    validate_parser.add_argument("--hosts", type=int, default=4)
    validate_parser.add_argument("--disks-per-leaf", type=int, default=2)
    validate_parser.add_argument("--fan-in", type=int, default=4)
    _add_common_flags(validate_parser)
    validate_parser.set_defaults(fn=_cmd_validate)

    lint_parser = sub.add_parser(
        "lint", help="run the determinism linter (default: the repro package)"
    )
    lint_parser.add_argument("paths", nargs="*")
    lint_parser.add_argument(
        "--audit", action="store_true", help="also list inline suppressions"
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    lint_parser.set_defaults(fn=_cmd_lint)

    check_parser = sub.add_parser(
        "check-determinism",
        help="run every experiment twice; compare digests, metric dumps and "
        "results; count races",
    )
    _add_common_flags(check_parser)
    check_parser.set_defaults(fn=_cmd_check_determinism)

    trace_parser = sub.add_parser(
        "trace",
        help="run one traced gateway point; print attribution or export traces",
    )
    trace_parser.add_argument(
        "--scheduler",
        choices=("batch", "fifo"),
        default="batch",
        help="gateway scheduler for the traced run",
    )
    trace_parser.add_argument(
        "--duration",
        type=float,
        default=60.0,
        help="seconds of offered open-loop traffic",
    )
    trace_parser.add_argument(
        "--format",
        choices=("summary", "jsonl", "chrome"),
        default="summary",
        help="summary report, canonical JSONL, or Chrome trace_event JSON",
    )
    trace_parser.add_argument(
        "--out",
        default=None,
        help="write the output to this file instead of stdout",
    )
    _add_common_flags(trace_parser)
    trace_parser.set_defaults(fn=_cmd_trace)

    energy_parser = sub.add_parser(
        "energy",
        help="run one energy-ledgered gateway point; print the joule books",
    )
    energy_parser.add_argument(
        "--scheduler",
        choices=("batch", "fifo"),
        default="batch",
        help="gateway scheduler for the metered run",
    )
    energy_parser.add_argument(
        "--duration",
        type=float,
        default=60.0,
        help="seconds of offered open-loop traffic",
    )
    _add_common_flags(energy_parser)
    energy_parser.set_defaults(fn=_cmd_energy)

    campaign_parser = sub.add_parser(
        "campaign",
        help="fan an experiment over a seed/sweep grid with cached cells",
    )
    campaign_parser.add_argument("experiment")
    campaign_parser.add_argument(
        "--seeds",
        default="",
        help="comma-separated seed list (experiment must declare 'seed')",
    )
    campaign_parser.add_argument(
        "--set",
        action="append",
        metavar="PARAM=V1,V2,…",
        help="sweep a declared parameter over comma-separated values "
             "(repeatable; cells are the cartesian product)",
    )
    campaign_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for uncached cells (<=1 runs inline)",
    )
    campaign_parser.add_argument(
        "--cache-dir",
        default=".campaigns",
        help="content-addressed result cache (default: .campaigns)",
    )
    campaign_parser.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached cells and recompute (entries are overwritten)",
    )
    campaign_parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the campaign report as JSON",
    )
    campaign_parser.set_defaults(fn=_cmd_campaign)

    bench_parser = sub.add_parser(
        "bench",
        help="run the wall-clock benchmark suite (alloc_scale, kernel_throughput, …)",
    )
    bench_parser.add_argument("benchmarks", nargs="*")
    bench_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="runs per benchmark (wall time is their median)",
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="run experiments at their declared smoke sizes, and restrict "
        "alloc_scale to its smallest (16-disk) size",
    )
    bench_parser.add_argument(
        "--out-dir",
        default=None,
        help="also append records to BENCH_*.json files in this directory",
    )
    _add_common_flags(bench_parser)
    bench_parser.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
