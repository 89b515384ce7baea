"""Per-layer pipeline-depth selection.

Two selectors are provided, mirroring Section III-C of the paper:

* the *analytical* optimum of Eq. (7),

      k_hat = sqrt( (R + C) / (R + T - 2) * (d_FF + d_mul + d_add) / (d_CSA + 2 d_mux) )

  a continuous value obtained by differentiating Tabs(k) (Eq. 6) with the
  continuous clock model (Eq. 5).  It is cheap, gives the intuition ("large
  T -> stay at k = 1; small T or big arrays -> collapse deeper"), and the
  paper observes that it approximates the discrete optimum "fairly
  accurately";
* the *discrete* search, which evaluates Tabs(k) for every supported
  collapse depth (using the discrete, rounded operating frequencies) and
  picks the argmin.  This is what the reference backend uses per layer
  (the batched engine runs the same search vectorised), and what a
  deployment would programme into the accelerator per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.activity import tiling_utilization
from repro.core.clock import ClockModel
from repro.core.config import ArrayFlexConfig
from repro.core.latency import LatencyModel
from repro.nn.gemm_mapping import GemmShape


@dataclass(frozen=True)
class ModeDecision:
    """The outcome of selecting a pipeline mode for one GEMM."""

    gemm: GemmShape
    collapse_depth: int
    cycles: int
    clock_frequency_ghz: float
    execution_time_ns: float
    analytical_depth: float
    per_depth_time_ns: dict[int, float]
    #: Occupied-PE fraction of the GEMM-to-array tiling (mode-independent;
    #: feeds the activity-aware power paths and the CLI decision report).
    array_utilization: float = 1.0

    @property
    def is_shallow(self) -> bool:
        """True when a shallow (collapsed) pipeline mode was selected."""
        return self.collapse_depth > 1


class PipelineOptimizer:
    """Selects the execution-time-optimal collapse depth per GEMM."""

    def __init__(self, config: ArrayFlexConfig) -> None:
        self.config = config
        self.latency = LatencyModel(config)
        self.clock = ClockModel(config)

    # ------------------------------------------------------------------ #
    # Eq. (7): analytical optimum
    # ------------------------------------------------------------------ #
    def analytical_optimal_depth(self, gemm: GemmShape) -> float:
        """Continuous optimal collapse depth of Eq. (7)."""
        tech = self.config.technology
        rows, cols = self.config.rows, self.config.cols
        size_term = (rows + cols) / (rows + gemm.t - 2)
        delay_term = tech.baseline_path_ps / tech.collapse_increment_ps
        return math.sqrt(size_term * delay_term)

    # ------------------------------------------------------------------ #
    # Discrete search over the supported modes
    # ------------------------------------------------------------------ #
    def evaluate_depth(self, gemm: GemmShape, collapse_depth: int) -> tuple[int, float]:
        """(cycles, absolute time in ns) of one GEMM at one collapse depth."""
        cycles = self.latency.total_cycles(gemm, collapse_depth)
        time_ns = self.clock.execution_time_ns(cycles, collapse_depth)
        return cycles, time_ns

    def best_depth(self, gemm: GemmShape) -> ModeDecision:
        """Pick the supported depth minimising absolute execution time (Eq. 6).

        Ties are broken toward the *shallower* (smaller k) mode, which also
        has the higher clock frequency and therefore the more robust timing
        margin -- the same tie-break a designer would apply.
        """
        per_depth: dict[int, float] = {}
        best: tuple[float, int] | None = None
        for depth in self.config.sorted_depths():
            _, time_ns = self.evaluate_depth(gemm, depth)
            per_depth[depth] = time_ns
            if best is None or time_ns < best[0] - 1e-12:
                best = (time_ns, depth)
        assert best is not None
        best_time, best_k = best
        cycles = self.latency.total_cycles(gemm, best_k)
        return ModeDecision(
            gemm=gemm,
            collapse_depth=best_k,
            cycles=cycles,
            clock_frequency_ghz=self.clock.frequency_ghz(best_k),
            execution_time_ns=best_time,
            analytical_depth=self.analytical_optimal_depth(gemm),
            per_depth_time_ns=per_depth,
            array_utilization=self._utilization(gemm),
        )

    def exhaustive_best_depth(
        self, gemm: GemmShape, max_depth: int | None = None
    ) -> ModeDecision:
        """Discrete search over *every* legal depth of the array, not just the
        supported set.

        Used by the Eq. (7) validation experiment to check how close the
        analytical optimum and the restricted {1, 2, 4} selection come to a
        hardware that could collapse at any divisor depth.
        """
        plane = self.config.configuration_plane()
        depths = plane.legal_depths(max_depth or self.config.max_depth)
        per_depth: dict[int, float] = {}
        best: tuple[float, int] | None = None
        for depth in depths:
            cycles = self.latency.total_cycles(gemm, depth)
            # The continuous Eq. (5) clock is used for unsupported depths.
            period_ns = self.clock.delay_model.clock_period_ps(depth) / 1000.0
            time_ns = cycles * period_ns
            per_depth[depth] = time_ns
            if best is None or time_ns < best[0] - 1e-12:
                best = (time_ns, depth)
        assert best is not None
        best_time, best_k = best
        return ModeDecision(
            gemm=gemm,
            collapse_depth=best_k,
            cycles=self.latency.total_cycles(gemm, best_k),
            clock_frequency_ghz=1000.0 / self.clock.delay_model.clock_period_ps(best_k),
            execution_time_ns=best_time,
            analytical_depth=self.analytical_optimal_depth(gemm),
            per_depth_time_ns=per_depth,
            array_utilization=self._utilization(gemm),
        )

    def _utilization(self, gemm: GemmShape) -> float:
        return tiling_utilization(gemm.m, gemm.n, self.config.rows, self.config.cols)

    # ------------------------------------------------------------------ #
    def decide_model(self, gemms: list[GemmShape]) -> list[ModeDecision]:
        """Per-layer decisions for a whole model."""
        return [self.best_depth(gemm) for gemm in gemms]
