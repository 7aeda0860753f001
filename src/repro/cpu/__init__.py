"""Multicore CPU substrate: DVFS frequency table, cores, power model, RAPL.

Replaces the paper's physical testbed (Intel Xeon Gold 5218R with the
``userspace`` cpufreq governor and RAPL energy counters) with an exact-
accounting simulated socket.  See DESIGN.md §2 for the substitution
rationale.
"""

from .core import Core
from .dvfs import DEFAULT_TABLE, FrequencyTable
from .governors import Governor, OndemandGovernor, PerformanceGovernor
from .power import DEFAULT_POWER_MODEL, PowerModel
from .rapl import EnergySample, PowerMonitor
from .topology import Cpu

__all__ = [
    "Core",
    "FrequencyTable",
    "DEFAULT_TABLE",
    "PowerModel",
    "DEFAULT_POWER_MODEL",
    "Cpu",
    "PowerMonitor",
    "EnergySample",
    "Governor",
    "PerformanceGovernor",
    "OndemandGovernor",
]
