"""Cycle-accurate simulation of the weight-stationary systolic array.

This package is the SCALE-Sim-style substrate of the reproduction: a
NumPy-vectorised simulator of the weight-stationary dataflow for both the
conventional fixed pipeline (k = 1) and ArrayFlex's collapsed (shallow)
pipelines (k >= 2).

Modules
-------
* :mod:`repro.sim.systolic_sim` -- the per-tile simulator.  It
  produces the exact integer GEMM result, the exact cycle count (which the
  tests compare against Eqs. 1 and 3), PE-utilisation statistics and the
  clocked/gated register counts that anchor the power model.  Only its
  ``simulate_tile`` steps registers cycle by cycle; ``simulate_tiles``
  replays the same results as one integer matmul plus the closed-form
  control schedule.
* :mod:`repro.sim.tiling` -- decomposition of an arbitrary (T, N, M) GEMM
  into array-sized tiles (Fig. 1(c)) and the tiled execution driver with
  south-edge accumulation, which runs on ``simulate_tiles``.
* :mod:`repro.sim.trace` -- per-cycle traces of array activity.
* :mod:`repro.sim.stats` -- aggregated simulation statistics.
"""

from repro.sim.stats import SimulationStats
from repro.sim.systolic_sim import CycleAccurateSystolicArray, TileSimResult
from repro.sim.tiling import TileSpec, TiledGemmResult, TilingPlan, run_tiled_gemm
from repro.sim.trace import CycleTrace, TraceEvent

__all__ = [
    "CycleAccurateSystolicArray",
    "TileSimResult",
    "TilingPlan",
    "TileSpec",
    "TiledGemmResult",
    "run_tiled_gemm",
    "SimulationStats",
    "CycleTrace",
    "TraceEvent",
]
