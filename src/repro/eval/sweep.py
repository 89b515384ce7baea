"""Parameter-sweep utilities shared by experiments and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.latency import LatencyModel
from repro.nn.gemm_mapping import GemmShape


@dataclass(frozen=True)
class DepthSweepPoint:
    """Execution metrics of one GEMM at one collapse depth."""

    collapse_depth: int
    cycles: int
    clock_frequency_ghz: float
    execution_time_us: float


def collapse_depth_sweep(
    gemm: GemmShape,
    config: ArrayFlexConfig,
    depths: tuple[int, ...] | None = None,
) -> list[DepthSweepPoint]:
    """Execution time of one GEMM across collapse depths (Fig. 5 style).

    Depths outside the configuration's supported set are evaluated with the
    discrete (rounded) operating frequency derived from the continuous
    Eq. (5) model, exactly how the paper's Fig. 5 explores k = 3 even though
    the shipped design only supports {1, 2, 4}.
    """
    latency = LatencyModel(config)
    clock = ClockModel(config)
    plane = config.configuration_plane()
    chosen = depths or tuple(sorted(config.supported_depths))
    points = []
    for depth in chosen:
        if not plane.is_legal_depth(depth):
            raise ValueError(
                f"collapse depth {depth} is illegal for a "
                f"{config.rows}x{config.cols} array"
            )
        cycles = latency.total_cycles(gemm, depth)
        if depth in config.supported_depths:
            freq = clock.frequency_ghz(depth)
            period_ns = clock.period_ns(depth)
        else:
            period_exact = clock.delay_model.clock_period_ps(depth)
            freq = clock.delay_model.frequency_ghz(period_exact)
            period_ns = 1.0 / freq
        points.append(
            DepthSweepPoint(
                collapse_depth=depth,
                cycles=cycles,
                clock_frequency_ghz=freq,
                execution_time_us=cycles * period_ns / 1000.0,
            )
        )
    return points
