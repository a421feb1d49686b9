"""ORION-style power and area models.

The paper estimates switch power and area with ORION 2.0 [20] at 65 nm.
ORION itself is not available offline, so this package implements an
analytic router/link model with the same structure (buffers, crossbar,
allocators, clock; dynamic + leakage) whose components scale the same way
with port count, virtual-channel count, buffer depth and flit width.  The
paper's comparisons are ratios between design variants on the same
technology, so they need that scaling, not ORION's absolute numbers.
"""

from repro.power.estimator import (
    NocAreaReport,
    NocPowerReport,
    estimate_area,
    estimate_power,
    estimate_power_and_area,
)
from repro.power.link import LinkPowerModel
from repro.power.orion import RouterPowerModel, TechnologyParameters

__all__ = [
    "TechnologyParameters",
    "RouterPowerModel",
    "LinkPowerModel",
    "estimate_power",
    "estimate_area",
    "estimate_power_and_area",
    "NocPowerReport",
    "NocAreaReport",
]
