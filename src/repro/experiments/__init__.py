"""Paper-reproduction experiments: one module per table/figure/claim.

| Module          | Paper artifact                                  |
|-----------------|--------------------------------------------------|
| ``table1``      | Table I — CapEx of five storage solutions        |
| ``table2``      | Table II — single-disk throughput                |
| ``table3``      | Table III — one-disk power                       |
| ``table4``      | Table IV — hub power vs connected disks          |
| ``table5``      | Table V — system power comparison                |
| ``figure5``     | Figure 5 — multi-disk throughput scaling         |
| ``figure6``     | Figure 6 — switching-time decomposition          |
| ``duplex``      | §VII-A — 540 MB/s duplex, 2160 MB/s aggregate    |
| ``hdfs_switch`` | §VII-B — HDFS across a disk switch               |
| ``host_failover``| §I — 5.8 s single-host recovery                 |
| ``ablations``   | DESIGN.md §4 — design-choice studies             |
| ``reliability`` | §IV-E / §VIII — availability, rebuild, scrubbing |
| ``gateway_slo`` | §IV-F — request tier: batching vs FIFO           |
| ``shardstore_small_objects`` | §IV-F — packed shards vs naive objects |
| ``tiering_staging`` | §IV-F — staged hot tier vs write-through    |

Every module declares one ``EXPERIMENT`` (see
:mod:`repro.experiments.base`), collected here into :data:`EXPERIMENTS`.
``EXPERIMENTS.get(name).run(**overrides)`` is the one way to run an
experiment; it returns a typed, versioned
:class:`~repro.experiments.base.ExperimentResult`.
"""

from repro.experiments import (
    ablations,
    duplex,
    figure5,
    figure6,
    gateway_slo,
    hdfs_switch,
    host_failover,
    reliability,
    shardstore_small_objects,
    table1,
    table2,
    table3,
    table4,
    table5,
    tiering_staging,
)
from repro.experiments.base import (  # noqa: F401
    Experiment,
    ExperimentRegistry,
    ExperimentResult,
    RESULT_SCHEMA_VERSION,
)

EXPERIMENTS = ExperimentRegistry()
for _module in (
    table1,
    table2,
    table3,
    table4,
    table5,
    figure5,
    figure6,
    duplex,
    hdfs_switch,
    host_failover,
    ablations,
    reliability,
    gateway_slo,
    shardstore_small_objects,
    tiering_staging,
):
    EXPERIMENTS.register(_module.EXPERIMENT)
del _module

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentRegistry",
    "ExperimentResult",
    "RESULT_SCHEMA_VERSION",
]
