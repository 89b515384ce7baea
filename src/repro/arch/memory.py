"""Output accumulators below the south edge of the systolic array.

The paper's Fig. 1(a) places output accumulators below the *south* edge:
they add up the partial sums of successive tiles of the tiled matrix
multiplication (Fig. 1(c)).  The west and north SRAM banks that feed
activations and weights are not modelled; the simulator counts their
word traffic in :class:`~repro.sim.stats.SimulationStats` instead (the
paper's power numbers exclude SRAM power, and so do the headline
experiments -- see Fig. 9's caption).
"""

from __future__ import annotations

import numpy as np


class AccumulatorBank:
    """Output accumulators below the south edge of the array.

    One accumulator per array column; each holds a full output column strip
    (T entries) and adds the partial sums produced by successive tiles along
    the N (reduction) dimension.
    """

    def __init__(self, cols: int, t_rows: int) -> None:
        if cols <= 0 or t_rows <= 0:
            raise ValueError("accumulator dimensions must be positive")
        self.cols = cols
        self.t_rows = t_rows
        self._values = np.zeros((t_rows, cols), dtype=np.int64)

    def accumulate_block(self, block: np.ndarray, col_offset: int = 0) -> None:
        """Add a whole (T x cols_block) tile result at a column offset."""
        block = np.asarray(block, dtype=np.int64)
        if block.shape[0] != self.t_rows:
            raise ValueError(
                f"block has {block.shape[0]} rows, accumulator expects {self.t_rows}"
            )
        if col_offset < 0 or col_offset + block.shape[1] > self.cols:
            raise ValueError("block does not fit at the requested column offset")
        self._values[:, col_offset : col_offset + block.shape[1]] += block

    def read_result(self) -> np.ndarray:
        """The accumulated output matrix (copy)."""
        return self._values.copy()
