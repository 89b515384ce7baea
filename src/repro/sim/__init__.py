"""Cycle-accurate simulation of the weight-stationary systolic array.

This package is the SCALE-Sim-style substrate of the reproduction: a
NumPy-vectorised simulator of the weight-stationary dataflow for both the
conventional fixed pipeline (k = 1) and ArrayFlex's collapsed (shallow)
pipelines (k >= 2).

Modules
-------
* :mod:`repro.sim.systolic_sim` -- the per-tile simulator.  Its
  ``simulate_tile`` steps every group-boundary register cycle by cycle and
  produces the exact integer GEMM result, the measured cycle count (which
  the tests compare against Eqs. 1 and 3), PE-utilisation statistics and
  the clocked/gated register counts that anchor the power model;
  ``simulate_tiles`` runs a sequence of tiles through it.
* :mod:`repro.sim.tiling` -- decomposition of an arbitrary (T, N, M) GEMM
  into array-sized tiles (Fig. 1(c)) and the tiled execution driver with
  south-edge accumulation, which steps every tile on ``simulate_tile``.
* :mod:`repro.sim.stats` -- aggregated simulation statistics.
"""

from repro.sim.stats import SimulationStats
from repro.sim.systolic_sim import CycleAccurateSystolicArray, TileSimResult
from repro.sim.tiling import TileSpec, TiledGemmResult, TilingPlan, run_tiled_gemm

__all__ = [
    "CycleAccurateSystolicArray",
    "TileSimResult",
    "TilingPlan",
    "TileSpec",
    "TiledGemmResult",
    "run_tiled_gemm",
    "SimulationStats",
]
