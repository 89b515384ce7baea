"""Micro-architectural (structural) model of the systolic array.

This package models the hardware organisation the paper describes at the
block level -- processing elements with configurable transparent pipeline
registers, the configuration plane, the array fabric, the south-edge
output accumulators and the weight-stationary dataflow -- as explicit
Python objects.

The structural model is intentionally object-per-element: it is the
reference against which the fast vectorised cycle simulator
(:mod:`repro.sim`) and the closed-form latency model (:mod:`repro.core`)
are validated on small arrays.

Modules
-------
* :mod:`repro.arch.registers` -- pipeline registers with transparency
  (bypass) and clock gating, plus activity counters.
* :mod:`repro.arch.pe` -- conventional and configurable processing
  elements (multiplier, 3:2 CSA, CPA, bypass multiplexers, config bits).
* :mod:`repro.arch.control` -- the configuration plane that turns a
  collapse depth k into per-PE configuration bits.
* :mod:`repro.arch.array` -- the R x C array fabric executing one tile
  cycle-by-cycle through the PE objects.
* :mod:`repro.arch.memory` -- the south-edge output accumulators.
* :mod:`repro.arch.dataflow` -- weight-stationary skew schedules for
  normal and shallow pipeline modes.
"""

from repro.arch.control import ConfigurationPlane, PEConfigBits
from repro.arch.dataflow import WeightStationaryDataflow
from repro.arch.memory import AccumulatorBank
from repro.arch.pe import ConfigurablePE, ConventionalPE, PEOutputs
from repro.arch.registers import PipelineRegister, RegisterActivity
from repro.arch.array import SystolicArrayModel, TileExecutionResult

__all__ = [
    "PipelineRegister",
    "RegisterActivity",
    "ConventionalPE",
    "ConfigurablePE",
    "PEOutputs",
    "PEConfigBits",
    "ConfigurationPlane",
    "SystolicArrayModel",
    "TileExecutionResult",
    "AccumulatorBank",
    "WeightStationaryDataflow",
]
