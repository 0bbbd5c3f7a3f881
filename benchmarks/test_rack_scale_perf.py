"""Scale suite: rack-scale allocator + kernel throughput acceptance.

Unlike the table/figure regeneration benchmarks in this directory,
these run the :mod:`repro.benchmarks` suite at full size (16 / 240 /
1920 disks) and assert the rack-scale performance contract:

* the whole ``alloc_scale`` sweep finishes in < 5 s wall;
* at 1920 disks the incremental allocator is >= 5x faster than the
  naive reference baseline;
* the optimized and naive allocations agree to 1e-9 at every size;
* the kernel's uninstrumented fast path is no slower than the fully
  instrumented loop.

Run with ``pytest benchmarks/test_rack_scale_perf.py`` (no
pytest-benchmark needed), or record history via
``python -m repro bench alloc_scale kernel_throughput --out-dir .``.
"""

from repro.benchmarks import run_benchmark


def test_alloc_scale_contract():
    record = run_benchmark("alloc_scale", repeat=2)
    assert record["wall_seconds"] < 5.0, record
    by_disks = {size["disks"]: size for size in record["sizes"]}
    assert set(by_disks) == {16, 240, 1920}
    for size in by_disks.values():
        assert size["max_rel_diff_vs_naive"] < 1e-9, size
    assert by_disks[1920]["speedup_cold"] >= 5.0, by_disks[1920]
    assert by_disks[1920]["speedup_warm"] >= 5.0, by_disks[1920]


def test_kernel_throughput_contract():
    record = run_benchmark("kernel_throughput", repeat=2)
    assert record["events_per_second_fast"] > 0
    # The fast path must not be slower than the instrumented loop.
    assert record["fast_path_uplift"] >= 1.0, record
