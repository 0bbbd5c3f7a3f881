"""Wall-clock benchmark suite: allocator and kernel microbenchmarks
plus timed runs of any registered experiment.

See :mod:`repro.benchmarks.suite`.  ``repro bench <name> --out-dir D``
appends records to ``BENCH_<name>.json`` files in ``D``.
"""

from repro.benchmarks.suite import (
    BENCH_SCHEMA_VERSION,
    BENCHMARKS,
    append_record,
    available_benchmarks,
    run_benchmark,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCHMARKS",
    "append_record",
    "available_benchmarks",
    "run_benchmark",
]
