"""Cycle-accurate (measured) backend.

Instead of trusting Eq. (3), this backend *measures* the per-tile cycle
count on the register-stepping simulator
(:meth:`repro.sim.systolic_sim.CycleAccurateSystolicArray.simulate_tiles`,
a loop of ``simulate_tile`` calls) and scales it by the Eq. (4) tile
count (every tile of a layer takes the same number of cycles — the
per-tile latency depends only on the array geometry, the streamed
dimension T and the collapse depth).

A tile's latency is affine in T (Eqs. (1)/(3)), so each (geometry, mode)
pair is calibrated once: the backend steps three short full-array probe
tiles (:attr:`CycleAccurateBackend.PROBE_DEPTHS`), checks each probe's
product against NumPy, and requires the three cycle counts to be exactly
collinear with an integer slope (:func:`affine_fit`).  Every layer then
reads its per-tile cycles off that measured line — no operands, no
matmul.  The calibration table lives on the backend instance (and
pickles with it), so a whole CNN suite costs three short simulations per
mode and geometry.

Everything else is the batched engine
(:class:`~repro.backends.batched.BatchedCachedBackend`): this class only
overrides its cycle source, so the Eq. (6) mode search runs over the
*measured* cycles of every supported mode (same shallow-first tie-break)
and the batch dedup, the vectorised pricing and the suite totals come
with it.  The first use of a geometry therefore calibrates every
mode of the configuration's menu.  Two consequences:

* the conventional baseline stays closed-form (Eqs. (1)/(2)), as on
  every backend;
* a decision store is refused (:func:`repro.backends.attach_store`): its
  rows carry Eq. (3) cycles, so answering from them would not be
  measured.  A process-pool sweep instead gives each worker its own copy
  of the backend, which calibrates its own lines.

Because the simulator is cycle-exact with respect to Eq. (3)
(property-tested in ``tests/test_sim_systolic.py``), the schedules agree
with the analytical backend; the value of this path is that the
agreement is *established by measurement*, and that it keeps holding if
either side changes.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backends.batched import BatchedCachedBackend
from repro.core.config import ArrayFlexConfig
from repro.nn.workloads import random_int_matrices
from repro.obs.trace import get_tracer
from repro.sim.systolic_sim import CycleAccurateSystolicArray


def affine_fit(
    depths: tuple[int, int, int], cycles: tuple[int, int, int], tile: str
) -> tuple[int, int]:
    """``(intercept, slope)`` of three probe cycle counts along T.

    The tile latency must be affine in the streamed depth T (Eqs.
    (1)/(3)), so the probes have to be exactly collinear with an integer
    slope — otherwise the extrapolation model is wrong and this refuses
    to extrapolate.  ``tile`` describes the probed tile in the error.
    """
    (low, mid, high), (cycles_low, cycles_mid, cycles_high) = depths, cycles
    collinear = (cycles_mid - cycles_low) * (high - low) == (
        cycles_high - cycles_low
    ) * (mid - low)
    if not collinear or (cycles_high - cycles_low) % (high - low) != 0:
        raise RuntimeError(
            f"streaming-probe calibration failed: tile cycles are not "
            f"affine in T at probes {depths} for tile ({tile}); refusing "
            f"to extrapolate"
        )
    slope = (cycles_high - cycles_low) // (high - low)
    return cycles_low - slope * low, slope


class CycleAccurateBackend(BatchedCachedBackend):
    """The batched engine on measured (register-stepped) tile cycle counts."""

    name = "cycle"

    #: Streamed depths of the three calibration probes.  Short, because
    #: stepping costs one update of every group-boundary register per cycle.
    PROBE_DEPTHS = (4, 6, 8)

    def __init__(self, measurement_seed: int = 0) -> None:
        super().__init__()
        self.measurement_seed = measurement_seed
        #: (rows, cols, k) -> (intercept, slope) of the measured tile latency.
        self._calibration: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._measure_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Pickling (the calibration lock cannot cross process boundaries)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_measure_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._measure_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _tile_cycles(
        self, config: ArrayFlexConfig, depth: int, t: np.ndarray
    ) -> np.ndarray:
        return self.measure_tile_cycles(config, t, depth)

    # ------------------------------------------------------------------ #
    def measure_tile_cycles(
        self, config: ArrayFlexConfig, t_rows: int | np.ndarray, collapse_depth: int
    ) -> int | np.ndarray:
        """Measured cycles of one full (R x C) tile streaming T rows.

        Read off the calibrated line of this (geometry, mode) pair (for a
        NumPy ``t_rows``, element-wise); the first call for the pair
        calibrates it.
        """
        key = (config.rows, config.cols, collapse_depth)
        line = self._calibration.get(key)
        if line is None:
            # Backends are shared across service threads: calibrations are
            # lock-serialised, so no pair is ever stepped twice.
            with self._measure_lock:
                line = self._calibration.get(key)
                if line is None:
                    line = self._calibration[key] = self._calibrate(*key)
        intercept, slope = line
        return intercept + slope * t_rows

    def _calibrate(
        self, rows: int, cols: int, collapse_depth: int
    ) -> tuple[int, int]:
        """Step the probe tiles; ``(intercept, slope)`` of their cycles in T."""
        array = CycleAccurateSystolicArray(
            rows=rows, cols=cols, collapse_depth=collapse_depth, configurable=True
        )
        tile = f"rows={rows}, cols={cols}, k={collapse_depth}"
        cycles = []
        with get_tracer().span(
            "engine.calibrate",
            backend=self.name,
            rows=rows,
            cols=cols,
            depth=collapse_depth,
        ):
            a_tiles, b_tiles = zip(*(
                random_int_matrices(t_rows, rows, cols, seed=self.measurement_seed)
                for t_rows in self.PROBE_DEPTHS
            ))
            results = array.simulate_tiles(a_tiles, b_tiles)
            for t_rows, a_tile, b_tile, result in zip(
                self.PROBE_DEPTHS, a_tiles, b_tiles, results
            ):
                if not np.array_equal(result.output, a_tile @ b_tile):
                    raise RuntimeError(
                        f"cycle-accurate simulation produced a wrong product "
                        f"for probe tile ({tile}, T={t_rows})"
                    )
                cycles.append(result.total_cycles)
        return affine_fit(self.PROBE_DEPTHS, tuple(cycles), tile)
