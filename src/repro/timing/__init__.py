"""Technology, timing, area and power models.

The paper implements both the conventional systolic array and ArrayFlex in
SystemVerilog and signs them off with a Cadence 28 nm standard-cell flow.
This package is the Python substitute for that flow:

* :mod:`repro.timing.technology` -- the calibrated 28 nm parameter set
  (per-component delays, energies and areas, plus supply/clocking data).
* :mod:`repro.timing.delay_model` -- composition of the PE critical path
  and the clock-period model of Eq. (5), including the discrete operating
  points the paper reports (2.0 / 1.8 / 1.7 / 1.4 GHz).
* :mod:`repro.timing.sta` -- a small static-timing analyzer over a
  gate-level netlist of a collapsed pipeline block (a dict of cells in
  topological order, walked once per configured depth), including
  false-path exclusion for unused collapse depths.
* :mod:`repro.timing.area_model` -- per-PE and per-array area, reproducing
  the ~16% PE area overhead of Fig. 6.
* :mod:`repro.timing.power_model` -- per-mode dynamic, clock and leakage
  power with clock gating of bypassed registers.
"""

from repro.timing.technology import TechnologyModel
from repro.timing.delay_model import DelayModel, OperatingPoint
from repro.timing.area_model import AreaModel, PEAreaBreakdown
from repro.timing.power_model import PowerModel, PEEnergyBreakdown
from repro.timing.activity_power import ActivityBasedPowerEstimator, EnergyEstimate
from repro.timing.sta import PipelineBlockNetlist, StaticTimingAnalyzer

__all__ = [
    "TechnologyModel",
    "DelayModel",
    "OperatingPoint",
    "AreaModel",
    "PEAreaBreakdown",
    "PowerModel",
    "PEEnergyBreakdown",
    "ActivityBasedPowerEstimator",
    "EnergyEstimate",
    "PipelineBlockNetlist",
    "StaticTimingAnalyzer",
]
