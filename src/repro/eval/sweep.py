"""Parameter-sweep utilities shared by experiments and benchmarks."""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.backends import ExecutionBackend, attach_store, create_backend
from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.latency import LatencyModel
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import CnnModel


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


@dataclass(frozen=True)
class SizeSweepPoint:
    """Comparison metrics of one model at one array size."""

    rows: int
    cols: int
    model_name: str
    conventional_time_ms: float
    arrayflex_time_ms: float
    latency_saving: float
    power_saving: float
    edp_gain: float


def array_size_sweep(
    models: list[CnnModel],
    sizes: list[tuple[int, int]],
    base_config: ArrayFlexConfig | None = None,
    backend: ExecutionBackend | str | None = None,
    cache_dir: str | os.PathLike[str] | None = None,
    max_workers: int | None = None,
) -> list[SizeSweepPoint]:
    """Run every model at every array size and collect the savings.

    ``backend`` selects the execution backend; the default is the
    batched/cached backend, which memoises repeated layer shapes across
    the size grid and is numerically identical to the analytical path.
    ``cache_dir`` additionally persists the decisions on disk so a rerun
    sweep starts warm.  The (model, size) grid is routed through the
    batch-serving front-end, which deduplicates repeated requests;
    ``max_workers`` sets its thread fan-out (default: one worker — the
    grid is dominated by cache hits, not compute).
    """
    from repro.obs.trace import get_tracer
    from repro.serve import SchedulingService

    resolved = create_backend(attach_store(backend, cache_dir), default="batched")
    grid = [
        ((base_config or ArrayFlexConfig()).with_size(rows, cols), model)
        for rows, cols in sizes
        for model in models
    ]
    with SchedulingService(
        backend=resolved, max_workers=max_workers or 1
    ) as service, get_tracer().span(
        "sweep.array_size", models=len(models), sizes=len(sizes)
    ):
        pairs = service.compare((model, config) for config, model in grid)
        points = []
        for (config, model), (flex_response, conv_response) in zip(grid, pairs):
            arrayflex = flex_response.unwrap()
            conventional = conv_response.unwrap()
            conventional_power = conventional.average_power_mw
            arrayflex_power = arrayflex.average_power_mw
            points.append(
                SizeSweepPoint(
                    rows=config.rows,
                    cols=config.cols,
                    model_name=model.name,
                    conventional_time_ms=conventional.total_time_ms,
                    arrayflex_time_ms=arrayflex.total_time_ms,
                    latency_saving=1.0 - arrayflex.total_time_ns / conventional.total_time_ns,
                    power_saving=1.0 - arrayflex_power / conventional_power,
                    edp_gain=(
                        conventional.energy_delay_product / arrayflex.energy_delay_product
                    ),
                )
            )
    return points
