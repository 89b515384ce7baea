#!/usr/bin/env python3
"""Cycle-accurate functional simulation of ArrayFlex versus the baseline.

The analytical models (Eqs. 1-6) answer "how long and how much power"; this
example shows the underlying hardware behaviour with the cycle-accurate
simulator:

* a random integer GEMM is executed tile by tile on a small 16x16 array in
  normal mode (k = 1) and both shallow modes (k = 2, k = 4), stepping
  every group-boundary pipeline register cycle by cycle;
* every run produces exactly the same product as NumPy (exact int64
  arithmetic; the bit-level carry-save datapath is
  ``repro.arch.SystolicArrayModel(use_bitlevel=True)``);
* the cycle counts, measured at the last south-edge capture, match
  Eqs. (1)/(3)/(4), and the shallow modes show the clock-gated
  (transparent) register fraction the power model relies on.

Run with:  python examples/functional_simulation.py
"""

import numpy as np

from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.latency import LatencyModel
from repro.eval.report import format_table
from repro.nn.gemm_mapping import GemmShape
from repro.nn.workloads import random_int_matrices
from repro.sim.tiling import run_tiled_gemm


def main() -> None:
    rows = cols = 16
    t_rows, n_dim, m_dim = 24, 40, 36
    a_matrix, b_matrix = random_int_matrices(t_rows, n_dim, m_dim, seed=7)
    reference = a_matrix @ b_matrix

    config = ArrayFlexConfig(rows=rows, cols=cols, supported_depths=(1, 2, 4))
    latency = LatencyModel(config)
    clock = ClockModel(config)
    gemm = GemmShape(m=m_dim, n=n_dim, t=t_rows, name="demo")

    table_rows = []
    for depth in (1, 2, 4):
        result = run_tiled_gemm(
            a_matrix, b_matrix, rows=rows, cols=cols, collapse_depth=depth
        )
        assert np.array_equal(result.output, reference), "functional mismatch!"
        expected_cycles = latency.total_cycles(gemm, depth)
        table_rows.append(
            (
                f"k={depth}",
                result.tiles,
                result.total_cycles,
                expected_cycles,
                result.total_cycles == expected_cycles,
                f"{result.stats.pe_utilization * 100:.1f}%",
                f"{result.stats.gated_register_fraction * 100:.1f}%",
                clock.execution_time_ns(result.total_cycles, depth) / 1000.0,
            )
        )

    print(
        format_table(
            [
                "mode",
                "tiles",
                "measured cycles",
                "Eq. (4) cycles",
                "match",
                "PE utilization",
                "gated registers",
                "time (us)",
            ],
            table_rows,
            title=(
                f"Cycle-accurate execution of a ({t_rows}x{n_dim}) x ({n_dim}x{m_dim}) "
                f"GEMM on a {rows}x{cols} ArrayFlex array"
            ),
        )
    )
    print("\nAll modes produced bit-exact results identical to NumPy's A @ B.")


if __name__ == "__main__":
    main()
