"""Weight-stationary dataflow schedules for normal and shallow pipelines.

The weight-stationary (WS) dataflow (paper Fig. 1(b)) preloads a tile of
matrix B into the array (one row per cycle, R cycles) and then streams the
rows of matrix A from the west edge with a *skew*: in normal mode the
activation destined for array row ``r`` enters ``r`` cycles after the one
destined for row 0, so that it meets the partial sum of the same output
element as the latter ripples down the column.

When the pipeline is collapsed by a factor ``k`` (paper Fig. 2(b)), the
activations of the ``k`` rows of a collapsed group must arrive *together*
(their products are reduced combinationally within one cycle), so the skew
becomes one cycle per *group*: "the first (and last) elements of matrix A
arrive in batches of k words".  Likewise the horizontal movement advances
one column *group* (k columns, by broadcast) per cycle.

This module turns those rules into explicit schedules that both the
structural array model (:mod:`repro.arch.array`) and the vectorised cycle
simulator (:mod:`repro.sim.systolic_sim`) consume, and exposes the per-tile
cycle counts that Eqs. (1) and (3) summarise.
"""

from __future__ import annotations

import numpy as np


class WeightStationaryDataflow:
    """Skew schedule of one tile execution on an R × C array at depth k."""

    def __init__(self, rows: int, cols: int, collapse_depth: int = 1) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        if collapse_depth < 1:
            raise ValueError("collapse depth must be >= 1")
        if rows % collapse_depth or cols % collapse_depth:
            raise ValueError(
                f"collapse depth {collapse_depth} must divide the array "
                f"dimensions {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.collapse_depth = collapse_depth

    # ------------------------------------------------------------------ #
    # Elementary schedule queries (cycles are 0-indexed within the
    # compute phase, i.e. after the weight preload has finished)
    # ------------------------------------------------------------------ #
    def row_group(self, row: int) -> int:
        """Index of the collapsed group containing array row ``row``."""
        self._check_row(row)
        return row // self.collapse_depth

    def col_group(self, col: int) -> int:
        """Index of the collapsed group containing array column ``col``."""
        self._check_col(col)
        return col // self.collapse_depth

    def input_arrival_cycle(self, t_index: int, row: int) -> int:
        """Cycle at which activation A[t, row] is presented at the west edge."""
        self._check_t(t_index)
        return t_index + self.row_group(row)

    def pe_activation_cycle(self, t_index: int, row: int, col: int) -> int:
        """Cycle at which activation A[t, row] is visible at PE (row, col)."""
        return self.input_arrival_cycle(t_index, row) + self.col_group(col)

    def output_ready_cycle(self, t_index: int, col: int) -> int:
        """Cycle whose clock edge captures output element (t, col) at the south edge."""
        self._check_t(t_index)
        last_group = self.rows // self.collapse_depth - 1
        return t_index + last_group + self.col_group(col)

    # ------------------------------------------------------------------ #
    # Phase durations
    # ------------------------------------------------------------------ #
    def weight_load_cycles(self) -> int:
        """Cycles to preload one tile of B: one array row per cycle."""
        return self.rows

    def compute_cycles(self, t_rows: int) -> int:
        """Cycles from the first west-edge word to the last south-edge capture."""
        if t_rows <= 0:
            raise ValueError("the streamed matrix must have at least one row")
        return self.output_ready_cycle(t_rows - 1, self.cols - 1) + 1

    def tile_latency_cycles(self, t_rows: int) -> int:
        """Total cycles for one tile: preload plus compute.

        For k = 1 this equals Eq. (1), ``2R + C + T - 2``; for a collapse
        depth k dividing both dimensions it equals Eq. (3),
        ``R + R/k + C/k + T - 2``.
        """
        return self.weight_load_cycles() + self.compute_cycles(t_rows)

    # ------------------------------------------------------------------ #
    # Stream construction for the simulators
    # ------------------------------------------------------------------ #
    def west_edge_schedule(self, t_rows: int) -> np.ndarray:
        """Activation index presented at each (cycle, array row), or -1.

        Returns an int array of shape (compute_cycles, rows) whose entry
        [cycle, row] is the ``t`` index of the activation entering row
        ``row`` at that cycle, or -1 when the row receives no data
        (pipeline skew bubbles).
        """
        if t_rows <= 0:
            raise ValueError("the streamed matrix must have at least one row")
        schedule = np.full((self.compute_cycles(t_rows), self.rows), -1, dtype=np.int64)
        t_indices = np.arange(t_rows)[:, np.newaxis]
        rows = np.arange(self.rows)
        schedule[t_indices + rows // self.collapse_depth, rows] = t_indices
        return schedule

    def build_skewed_stream(self, a_tile: np.ndarray) -> np.ndarray:
        """Skewed west-edge data stream for one tile of A.

        ``a_tile`` has shape (T, rows_used) with rows_used <= R; missing
        rows are fed zeros.  The returned array has shape
        (compute_cycles, R): entry [cycle, row] is the value driven into
        row ``row`` of the array at that cycle (0 during bubbles).
        """
        a_tile = np.asarray(a_tile)
        if a_tile.ndim != 2:
            raise ValueError("a_tile must be a 2-D array of shape (T, rows_used)")
        t_rows, rows_used = a_tile.shape
        if rows_used > self.rows:
            raise ValueError(
                f"tile uses {rows_used} rows but the array only has {self.rows}"
            )
        schedule = self.west_edge_schedule(t_rows)
        stream = np.zeros(schedule.shape, dtype=a_tile.dtype)
        cycles, rows = np.nonzero(schedule[:, :rows_used] >= 0)
        stream[cycles, rows] = a_tile[schedule[cycles, rows], rows]
        return stream

    def output_collection_schedule(self, t_rows: int) -> np.ndarray:
        """Capture cycle of every output element.

        Returns an int array of shape (T, cols) whose entry [t, col] is the
        compute-phase cycle at whose clock edge the south-edge register of
        column ``col`` holds output element (t, col).
        """
        if t_rows <= 0:
            raise ValueError("the streamed matrix must have at least one row")
        t_indices = np.arange(t_rows)[:, np.newaxis]
        col_groups = (np.arange(self.cols) // self.collapse_depth)[np.newaxis, :]
        last_group = self.rows // self.collapse_depth - 1
        return t_indices + last_group + col_groups

    # ------------------------------------------------------------------ #
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} outside [0, {self.rows})")

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise ValueError(f"column {col} outside [0, {self.cols})")

    @staticmethod
    def _check_t(t_index: int) -> None:
        if t_index < 0:
            raise ValueError("t index must be non-negative")
