"""Power models: policies, accounting, and rival-system comparisons."""

from repro.power.accounting import PowerMeter
from repro.power.policy import (
    AdaptiveTimeoutPolicy,
    FixedTimeoutPolicy,
    SpinDownPolicy,
    run_policy,
)
from repro.power.systems import (
    DD860_POWERED_OFF,
    DD860_SPINNING,
    PowerBreakdown,
    dd860_power,
    pergamum_power,
    ustore_power,
)

__all__ = [
    "AdaptiveTimeoutPolicy",
    "DD860_POWERED_OFF",
    "DD860_SPINNING",
    "FixedTimeoutPolicy",
    "PowerBreakdown",
    "PowerMeter",
    "SpinDownPolicy",
    "dd860_power",
    "pergamum_power",
    "run_policy",
    "ustore_power",
]
