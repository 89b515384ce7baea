"""Tiled matrix multiplication (paper Fig. 1(c)).

When the GEMM dimensions exceed the array size (N > R and/or M > C) the
multiplication is executed tile by tile.  Each tile multiplies a
(T × R) slice of A by an (R × C) slice of B; the partial sums reaching the
south edge are accumulated into the output accumulators sitting below the
array.  The number of tiles is ``ceil(N / R) × ceil(M / C)`` and the total
cycle count is the per-tile latency times that number (Eqs. 2 and 4).

This module provides the tiling plan, a tiled execution driver that steps
every tile's registers on
:meth:`~repro.sim.systolic_sim.CycleAccurateSystolicArray.simulate_tile`,
and the resulting aggregate statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.memory import AccumulatorBank
from repro.sim.stats import SimulationStats
from repro.sim.systolic_sim import CycleAccurateSystolicArray, integer_operand


@dataclass(frozen=True)
class TileSpec:
    """One tile of the tiled GEMM: slices of the N and M dimensions."""

    n_start: int
    n_stop: int
    m_start: int
    m_stop: int

    @property
    def n_size(self) -> int:
        return self.n_stop - self.n_start

    @property
    def m_size(self) -> int:
        return self.m_stop - self.m_start


class TilingPlan:
    """Decomposition of a (T, N, M) GEMM onto an R × C array."""

    def __init__(self, n_dim: int, m_dim: int, rows: int, cols: int) -> None:
        if min(n_dim, m_dim, rows, cols) <= 0:
            raise ValueError("all dimensions must be positive")
        self.n_dim = n_dim
        self.m_dim = m_dim
        self.rows = rows
        self.cols = cols

    @property
    def n_tiles_vertical(self) -> int:
        """Number of tiles along the reduction dimension N: ceil(N / R)."""
        return math.ceil(self.n_dim / self.rows)

    @property
    def n_tiles_horizontal(self) -> int:
        """Number of tiles along the output dimension M: ceil(M / C)."""
        return math.ceil(self.m_dim / self.cols)

    @property
    def total_tiles(self) -> int:
        """Total tile count of Eq. (2)/(4): ceil(N/R) x ceil(M/C)."""
        return self.n_tiles_vertical * self.n_tiles_horizontal

    def tiles(self) -> list[TileSpec]:
        """All tiles in execution order (M-major, then N)."""
        specs: list[TileSpec] = []
        for m_start in range(0, self.m_dim, self.cols):
            m_stop = min(m_start + self.cols, self.m_dim)
            for n_start in range(0, self.n_dim, self.rows):
                n_stop = min(n_start + self.rows, self.n_dim)
                specs.append(
                    TileSpec(
                        n_start=n_start, n_stop=n_stop, m_start=m_start, m_stop=m_stop
                    )
                )
        return specs


@dataclass
class TiledGemmResult:
    """Result and measurements of a complete tiled GEMM."""

    output: np.ndarray
    stats: SimulationStats
    tiles: int
    collapse_depth: int

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


def run_tiled_gemm(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    rows: int,
    cols: int,
    collapse_depth: int = 1,
    configurable: bool = True,
) -> TiledGemmResult:
    """Execute ``A @ B`` tile by tile, stepping every tile's registers.

    ``a_matrix`` has shape (T, N) and ``b_matrix`` shape (N, M); their
    entries must be whole numbers (:func:`~repro.sim.systolic_sim.integer_operand`).
    The tiles of :meth:`TilingPlan.tiles` run through one
    :meth:`~repro.sim.systolic_sim.CycleAccurateSystolicArray.simulate_tiles`
    call, and partial sums of tiles sharing the same output columns are
    accumulated in an :class:`~repro.arch.memory.AccumulatorBank`,
    exactly as in Fig. 1(a).
    """
    a_matrix = integer_operand(a_matrix)
    b_matrix = integer_operand(b_matrix)
    if a_matrix.ndim != 2 or b_matrix.ndim != 2:
        raise ValueError("a_matrix and b_matrix must be two-dimensional")
    if a_matrix.shape[1] != b_matrix.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}"
        )
    t_rows, n_dim = a_matrix.shape
    m_dim = b_matrix.shape[1]

    plan = TilingPlan(n_dim=n_dim, m_dim=m_dim, rows=rows, cols=cols)
    array = CycleAccurateSystolicArray(
        rows=rows,
        cols=cols,
        collapse_depth=collapse_depth,
        configurable=configurable,
    )
    accumulators = AccumulatorBank(cols=m_dim, t_rows=t_rows)
    stats = SimulationStats()

    specs = plan.tiles()
    results = array.simulate_tiles(
        [a_matrix[:, s.n_start : s.n_stop] for s in specs],
        [b_matrix[s.n_start : s.n_stop, s.m_start : s.m_stop] for s in specs],
    )
    for spec, result in zip(specs, results):
        accumulators.accumulate_block(result.output, col_offset=spec.m_start)
        stats.merge(result.stats)

    return TiledGemmResult(
        output=accumulators.read_result(),
        stats=stats,
        tiles=plan.total_tiles,
        collapse_depth=collapse_depth,
    )
