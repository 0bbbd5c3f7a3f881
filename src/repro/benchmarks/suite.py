"""The benchmark suite: wall-clock measurements of the simulation stack.

Every benchmark writes the same record schema (the ``BENCH_*.json``
history files at the repo root):

* ``alloc_scale`` — max-min bandwidth allocation over rack-scale
  fabrics (16 / 240 / 1920 disks, i.e. 1 / 15 / 120 ring pods),
  comparing the incremental allocator against the retained naive
  baseline (:meth:`repro.fabric.bandwidth.BandwidthModel.allocate_naive`)
  and recording the speedup;
* ``kernel_throughput`` — raw events/sec of the discrete-event kernel,
  via self-rescheduling timer callbacks: the fast path drives
  :meth:`~repro.sim.kernel.Simulator.defer` (the allocation-free hot
  path), the ``instrumented`` figure runs the same timers on a
  simulator with a metrics registry whose queue an
  :class:`~repro.sim.EventDigest` fingerprints, the ``eventpath``
  figure schedules ``sim.timeout(...)`` events with a callback each;
* any registered experiment name (e.g. ``figure5``) — wall time of a
  full experiment run, with its params, anchors, ``sim.events`` and
  obs counters (:func:`bench_experiment`).  ``smoke`` applies the
  experiment's declared
  :attr:`~repro.experiments.base.Experiment.smoke` sizes; the CI gate
  runs every experiment that declares them.  A smoke record also
  carries ``calibration_s`` (:func:`calibration_s`), how fast the
  machine ran a fixed loop around it, so that the gate can scale a
  recorded wall to the machine's speed now.

Wall-clock use is deliberate and local to this module: benchmarks
measure the simulator, they never feed timestamps into it.  The module
is listed in the determinism linter's wall-clock exemptions for exactly
that reason.

Records are kept diff-friendly: headline ``wall_seconds`` is the
**median** over repeats (robust to one noisy run, so a committed
refresh under identical code moves as little as possible), the best run
is retained as ``wall_seconds_best``, and the ``recorded_at`` timestamp
is provenance only — no perf gate compares it.
"""

from __future__ import annotations

import gc
import heapq
import json
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import EXPERIMENTS
from repro.fabric.bandwidth import BandwidthModel, Flow
from repro.fabric.builders import rack_fabric
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import EventDigest

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCHMARKS",
    "append_record",
    "available_benchmarks",
    "calibration_s",
    "run_benchmark",
]

#: v2: ``wall_seconds`` became the median over repeats (was the best
#: run, now kept as ``wall_seconds_best``) and kernel_throughput grew
#: the defer fast path plus the ``scheduler_comparison`` leg.
#: v3: experiment records always carry ``smoke``, ``params`` and
#: ``anchors``; the ``gateway``, ``shardstore`` and ``tiering`` records
#: became ``gateway_slo``, ``shardstore_small_objects`` and
#: ``tiering_staging`` smoke records.  Smoke records may also carry
#: ``calibration_s``; older v3 records do not, and gate unscaled.
#: kernel_throughput records no longer carry ``scheduler_comparison``
#: (the kernel has one event queue); older v3 records still do.
BENCH_SCHEMA_VERSION = 3

#: Pod counts for the allocation scale sweep: one deploy unit (the
#: paper's 16-disk prototype), a 15-pod rack (240 disks) and a 120-pod
#: row (1920 disks).
ALLOC_SCALE_PODS: Tuple[int, ...] = (1, 15, 120)

#: Distinct demand levels drawn for alloc_scale flows.  Enough levels
#: that progressive filling takes many rounds (the regime the
#: incremental allocator is built for) while keeping the naive baseline
#: comfortably under the suite's 5 s wall budget at 1920 disks.
_DEMAND_LEVELS = 32

KERNEL_EVENTS_FULL = 200_000
KERNEL_EVENTS_SMOKE = 20_000


#: Rounds of the calibration loop, and the events each round pushes
#: before its first pop.
CALIBRATION_ROUNDS = 20
CALIBRATION_EVENTS = 4000


def _calibration_round() -> int:
    """A small event loop like the simulator's: heap pushes and pops of
    tuples, closure calls, dict updates.  Stdlib only, so a change to
    the program never moves it."""
    heap: List[Tuple[float, int, Callable[[], None]]] = []
    seen: Dict[int, int] = {}
    total = [0]

    def make(key: int) -> Callable[[], None]:
        def fire() -> None:
            seen[key & 255] = seen.get(key & 255, 0) + 1
            total[0] += key

        return fire

    for index in range(CALIBRATION_EVENTS):
        heapq.heappush(heap, ((index * 7919) % 1009 * 0.5, index, make(index)))
    while heap:
        at, index, fire = heapq.heappop(heap)
        fire()
        if index % 3 == 0 and index < CALIBRATION_EVENTS:
            heapq.heappush(heap, (at + 1.0, index + CALIBRATION_EVENTS, make(index)))
    return total[0]


def calibration_s() -> float:
    """How fast the machine runs Python right now: host seconds of the
    fastest of :data:`CALIBRATION_ROUNDS` rounds of a fixed loop.

    The same loop as the repository benchmark's ``bench/calibration.py``.
    The cyclic garbage collector is off while the rounds run, so the
    reading does not depend on how much the caller has allocated.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CALIBRATION_ROUNDS):
            start = time.process_time()
            _calibration_round()
            best = min(best, time.process_time() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _base_record(name: str, repeat: int) -> Dict:
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "experiment": name,
        "recorded_at": _timestamp(),
        "repeat": repeat,
    }


def _finish_record(
    record: Dict, wall_times: List[float], sim_events: float, counters: Dict
) -> Dict:
    median_wall = median(wall_times)
    record.update(
        {
            "wall_seconds": round(median_wall, 4),
            "wall_seconds_best": round(min(wall_times), 4),
            "wall_seconds_all": [round(t, 4) for t in wall_times],
            "sim_events": sim_events,
            "sim_events_per_wall_second": (
                round(sim_events / median_wall, 1) if median_wall > 0 else None
            ),
            "counters": {k: v for k, v in sorted(counters.items())},
        }
    )
    return record


def _rack_flows(num_disks_sorted: Sequence[str], seed: int) -> List[Flow]:
    """Deterministic pseudo-random flows: mixed direction, many demand levels."""
    rng = RngRegistry(seed).stream("bench.alloc_scale")
    levels = [rng.uniform(20e6, 180e6) for _ in range(_DEMAND_LEVELS)]
    return [
        Flow(f"f{i}", disk_id, rng.choice(levels), rng.random() < 0.5)
        for i, disk_id in enumerate(num_disks_sorted)
    ]


def bench_alloc_scale(
    repeat: int = 2, seed: int = 42, smoke: bool = False
) -> Dict:
    """Incremental vs naive progressive filling across fabric sizes.

    Per size, times the optimized allocator cold (first call: path walks
    plus skeleton build) and warm (epoch caches hot), runs the naive
    baseline once, and cross-checks the two allocations.  ``smoke``
    restricts the sweep to the 16-disk size for the CI perf gate.
    """
    pods = ALLOC_SCALE_PODS[:1] if smoke else ALLOC_SCALE_PODS
    record = _base_record("alloc_scale", repeat)
    record["seed"] = seed
    sizes: List[Dict] = []
    total_wall = 0.0
    allocations = 0
    started_total = time.perf_counter()
    for pod_count in pods:
        fabric = rack_fabric(pod_count)
        disks = sorted(disk.node_id for disk in fabric.disks)
        flows = _rack_flows(disks, seed)
        model = BandwidthModel(fabric)

        t0 = time.perf_counter()
        optimized = model.allocate(flows)
        cold_seconds = time.perf_counter() - t0
        warm_times: List[float] = []
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            optimized = model.allocate(flows)
            warm_times.append(time.perf_counter() - t0)
            allocations += 1
        t0 = time.perf_counter()
        naive = model.allocate_naive(flows)
        naive_seconds = time.perf_counter() - t0

        max_rel_diff = 0.0
        for flow_id, rate in optimized.rates.items():
            other = naive.rates[flow_id]
            scale = max(abs(rate), abs(other), 1.0)
            diff = abs(rate - other) / scale
            if diff > max_rel_diff:
                max_rel_diff = diff
        warm_seconds = min(warm_times)
        sizes.append(
            {
                "pods": pod_count,
                "disks": len(disks),
                "flows": len(flows),
                "opt_cold_seconds": round(cold_seconds, 5),
                "opt_warm_seconds": round(warm_seconds, 5),
                "naive_seconds": round(naive_seconds, 5),
                "speedup_cold": round(naive_seconds / cold_seconds, 1)
                if cold_seconds > 0
                else None,
                "speedup_warm": round(naive_seconds / warm_seconds, 1)
                if warm_seconds > 0
                else None,
                "flows_per_second_warm": round(len(flows) / warm_seconds, 1)
                if warm_seconds > 0
                else None,
                "max_rel_diff_vs_naive": max_rel_diff,
            }
        )
    total_wall = time.perf_counter() - started_total
    record["sizes"] = sizes
    return _finish_record(
        record,
        [total_wall],
        0.0,
        {"fabric.allocations": float(allocations)},
    )


#: Pending timers in the kernel loops: one per disk of a deploy unit.
KERNEL_FAN_OUT = 16


def _drive_kernel(sim: Simulator, total_events: int) -> None:
    """Run ``total_events`` timers as :class:`~repro.sim.Timeout` events
    with one callback each (the Event path)."""
    remaining = [total_events]

    def tick(_event: Event) -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.timeout(1.0).callbacks.append(tick)

    for i in range(min(KERNEL_FAN_OUT, total_events)):
        sim.timeout(float(i % 3)).callbacks.append(tick)
    sim.run()


def _drive_kernel_defer(sim: Simulator, total_events: int) -> None:
    """Run ``total_events`` self-rescheduling :meth:`Simulator.defer`
    timers while keeping ``KERNEL_FAN_OUT`` of them pending."""
    remaining = [total_events]
    defer = sim.defer

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            defer(1.0, tick)

    for i in range(min(KERNEL_FAN_OUT, total_events)):
        defer(float(i % 3), tick)
    sim.run()


def _median_rate(times: List[float], events: int) -> Optional[float]:
    med = median(times)
    return round(events / med, 1) if med > 0 else None


def bench_kernel_throughput(
    repeat: int = 2, seed: int = 42, smoke: bool = False
) -> Dict:
    """Events/sec of the kernel: defer fast path, Event path, and the
    fast path fingerprinted by a digest."""
    del seed  # kernel throughput is workload-independent
    total_events = KERNEL_EVENTS_SMOKE if smoke else KERNEL_EVENTS_FULL
    record = _base_record("kernel_throughput", repeat)
    record["events_per_run"] = total_events

    def timed(make_sim, drive) -> List[float]:
        times: List[float] = []
        for _ in range(max(1, repeat)):
            sim = make_sim()
            t0 = time.perf_counter()
            drive(sim)
            times.append(time.perf_counter() - t0)
        return times

    # Headline fast path: allocation-free defer timers.
    fast_times = timed(Simulator, lambda sim: _drive_kernel_defer(sim, total_events))
    # The Event/callback route (Timeout allocation per timer).
    eventpath_times = timed(
        Simulator, lambda sim: _drive_kernel(sim, total_events)
    )

    def instrumented_sim() -> Simulator:
        with EventDigest().under():
            return Simulator(metrics=MetricsRegistry())

    instrumented_times = timed(
        instrumented_sim, lambda sim: _drive_kernel_defer(sim, total_events)
    )

    record["events_per_second_fast"] = _median_rate(fast_times, total_events)
    record["events_per_second_eventpath"] = _median_rate(
        eventpath_times, total_events
    )
    record["events_per_second_instrumented"] = _median_rate(
        instrumented_times, total_events
    )
    fast_med = median(fast_times)
    record["fast_path_uplift"] = (
        round(median(instrumented_times) / fast_med, 2) if fast_med > 0 else None
    )

    return _finish_record(
        record,
        fast_times,
        float(total_events),
        {"sim.events": float(total_events)},
    )


#: Pure-suite benchmarks (everything else resolves via EXPERIMENTS).
BENCHMARKS: Dict[str, Callable[..., Dict]] = {
    "alloc_scale": bench_alloc_scale,
    "kernel_throughput": bench_kernel_throughput,
}


def available_benchmarks() -> List[str]:
    """Names accepted by :func:`run_benchmark`."""
    return sorted(BENCHMARKS) + [n for n in EXPERIMENTS.names()]


def bench_experiment(
    name: str, repeat: int = 1, seed: Optional[int] = None, smoke: bool = False
) -> Dict:
    """Time a registered experiment run and record what it computed.

    ``smoke`` applies the experiment's declared :attr:`Experiment.smoke`
    overrides; ``seed`` is passed only when given and declared, the
    rule ``repro run`` uses.  The record carries the overrides used
    (``params``), the last run's anchors, ``sim_events`` and every obs
    counter; a smoke record also carries ``calibration_s``, the fastest
    of the :func:`calibration_s` readings taken before every run and
    after the last, so one momentarily slow reading cannot set it.
    """
    experiment = EXPERIMENTS.get(name)
    overrides: Dict[str, Any] = dict(experiment.smoke) if smoke else {}
    overrides.update(experiment.seed_override(seed))
    calibrations: List[float] = []
    wall_times: List[float] = []
    for _ in range(max(1, repeat)):
        if smoke:
            calibrations.append(calibration_s())
        started = time.perf_counter()
        result = experiment.run(**overrides)
        wall_times.append(time.perf_counter() - started)
    counters = (result.obs or {}).get("counters", {})
    record = _base_record(name, repeat)
    if smoke:
        calibrations.append(calibration_s())
        record["calibration_s"] = round(min(calibrations), 6)
    record["smoke"] = smoke
    record["params"] = overrides
    record["anchors"] = dict(result.anchors)
    return _finish_record(
        record, wall_times, counters.get("sim.events", 0.0), counters
    )


def run_benchmark(
    name: str, repeat: int = 1, seed: Optional[int] = None, smoke: bool = False
) -> Dict:
    """Run one benchmark (suite entry or experiment) and return its record."""
    bench = BENCHMARKS.get(name)
    if bench is not None:
        seeded = {} if seed is None else {"seed": seed}
        return bench(repeat=max(1, repeat), smoke=smoke, **seeded)
    if name in EXPERIMENTS:
        return bench_experiment(name, repeat=max(1, repeat), seed=seed, smoke=smoke)
    raise KeyError(
        f"unknown benchmark {name!r}; available: {', '.join(available_benchmarks())}"
    )


def append_record(out_dir: Path, record: Dict) -> Path:
    """Append ``record`` to the BENCH history file for its benchmark.

    A history that is not a JSON list (truncated, hand-edited) raises
    ``ValueError`` naming the file, which is left as it was.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(out_dir) / f"BENCH_{record['experiment']}.json"
    history: List[Dict] = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(history, list):
            raise ValueError(
                f"{path}: expected a JSON list of records, "
                f"found {type(history).__name__}"
            )
    history.append(record)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return path
