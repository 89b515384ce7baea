"""Public accelerator facade.

:class:`ArrayFlexAccelerator` is the one-stop API most users need:

>>> from repro import ArrayFlexAccelerator
>>> from repro.nn import resnet34
>>> accel = ArrayFlexAccelerator(rows=128, cols=128)
>>> comparison = accel.compare_with_conventional(resnet34())
>>> round(comparison.latency_saving, 3) > 0
True

It wraps the configuration, the per-layer optimizer, an execution
backend, the energy model and (optionally) the cycle-accurate functional
simulator, and it exposes the conventional fixed-pipeline baseline for
side-by-side comparisons -- the comparison the whole paper is about.

Scheduling is delegated to a pluggable :class:`repro.backends.ExecutionBackend`:

>>> from repro import ArrayFlexAccelerator
>>> from repro.backends import BatchedCachedBackend
>>> accel = ArrayFlexAccelerator(rows=128, cols=128, backend=BatchedCachedBackend())

keeps the exact numbers of the default analytical backend while making
repeated and sweep-style workloads much faster; ``backend="cycle"``
runs the same engine on cycle counts measured by the cycle-accurate
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.activity import ActivityModel, create_activity_model
from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.energy import EnergyModel
from repro.core.optimizer import ModeDecision, PipelineOptimizer
from repro.core.metrics import LayerMetrics, ModelSchedule, WorkloadArgument
from repro.nn.gemm_mapping import GemmShape
from repro.sim.tiling import TiledGemmResult, run_tiled_gemm
from repro.timing.area_model import AreaModel
from repro.timing.technology import TechnologyModel

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.backends import ExecutionBackend


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side result of running one model on both accelerators."""

    model_name: str
    conventional: ModelSchedule
    arrayflex: ModelSchedule

    @property
    def latency_saving(self) -> float:
        """Fractional execution-time reduction of ArrayFlex vs the baseline."""
        base = self.conventional.total_time_ns
        if base == 0:
            return 0.0
        return 1.0 - self.arrayflex.total_time_ns / base

    @property
    def power_saving(self) -> float:
        """Fractional average-power reduction of ArrayFlex vs the baseline."""
        base = self.conventional.average_power_mw
        if base == 0:
            return 0.0
        return 1.0 - self.arrayflex.average_power_mw / base

    @property
    def edp_gain(self) -> float:
        """Energy-delay-product improvement factor (paper: 1.4x-1.8x)."""
        arrayflex_edp = self.arrayflex.energy_delay_product
        if arrayflex_edp == 0:
            return float("inf")
        return self.conventional.energy_delay_product / arrayflex_edp

    def summary(self) -> dict[str, float]:
        return {
            "latency_saving": self.latency_saving,
            "power_saving": self.power_saving,
            "edp_gain": self.edp_gain,
            "conventional_time_ms": self.conventional.total_time_ms,
            "arrayflex_time_ms": self.arrayflex.total_time_ms,
            "conventional_power_mw": self.conventional.average_power_mw,
            "arrayflex_power_mw": self.arrayflex.average_power_mw,
        }


class ArrayFlexAccelerator:
    """The configurable-pipeline systolic-array accelerator (the paper's design)."""

    def __init__(
        self,
        rows: int = 128,
        cols: int = 128,
        supported_depths: tuple[int, ...] = (1, 2, 4),
        technology: TechnologyModel | None = None,
        config: ArrayFlexConfig | None = None,
        backend: ExecutionBackend | str | None = None,
        activity_model: "ActivityModel | str | None" = None,
    ) -> None:
        if config is not None:
            if activity_model is not None:
                raise ValueError(
                    "pass activity_model inside config=... or as the keyword, not both"
                )
            self.config = config
        else:
            self.config = ArrayFlexConfig(
                rows=rows,
                cols=cols,
                supported_depths=supported_depths,
                technology=technology or TechnologyModel.default_28nm(),
                #: ``None`` keeps the bit-identical ConstantActivity(1.0)
                #: default; "utilization" derives per-layer activity from
                #: the GEMM-to-array tiling (see repro.core.activity).
                activity_model=create_activity_model(activity_model),
            )
        from repro.backends import create_backend

        #: The execution backend scheduling runs on this accelerator.  May
        #: be an :class:`~repro.backends.ExecutionBackend` instance or a
        #: registry name ("analytical", "batched", "cycle"); defaults to
        #: the reference analytical backend.
        self.backend = create_backend(backend)
        self.optimizer = PipelineOptimizer(self.config)
        self.clock = ClockModel(self.config)
        self.energy = EnergyModel(self.config)
        self.area = AreaModel(self.config.technology)

    # ------------------------------------------------------------------ #
    # Analytical execution (latency / power / energy models)
    # ------------------------------------------------------------------ #
    def decide(self, gemm: GemmShape | tuple[int, int, int]) -> ModeDecision:
        """Pick the optimal pipeline mode for one GEMM (Eq. 6 argmin)."""
        return self.optimizer.best_depth(self._to_gemm(gemm))

    def run_gemm(self, gemm: GemmShape | tuple[int, int, int]) -> LayerMetrics:
        """Schedule one GEMM with the optimal pipeline mode."""
        return self.backend.schedule_layer(self._to_gemm(gemm), self.config, index=1)

    def run_model(self, model: WorkloadArgument) -> ModelSchedule:
        """Schedule every layer of a workload with per-layer mode selection.

        Accepts a CNN layer table, any :class:`repro.workloads` workload
        object (e.g. a transformer trace), a registry name string
        (``"bert_base"``, ``"resnet34@bs8"``) or an explicit GEMM list.
        """
        return self.backend.schedule_model(model, self.config)

    def run_model_conventional(self, model: WorkloadArgument) -> ModelSchedule:
        """Schedule the same model on the conventional fixed-pipeline baseline."""
        return self.backend.schedule_model_conventional(model, self.config)

    def compare_with_conventional(
        self, model: WorkloadArgument
    ) -> ComparisonReport:
        """Run a model on both accelerators and report the savings."""
        arrayflex = self.run_model(model)
        conventional = self.run_model_conventional(model)
        return ComparisonReport(
            model_name=arrayflex.model_name,
            conventional=conventional,
            arrayflex=arrayflex,
        )

    # ------------------------------------------------------------------ #
    # Functional (cycle-accurate) execution
    # ------------------------------------------------------------------ #
    def execute_gemm(
        self,
        a_matrix: np.ndarray,
        b_matrix: np.ndarray,
        collapse_depth: int | None = None,
    ) -> TiledGemmResult:
        """Execute ``A @ B`` through :func:`run_tiled_gemm`.

        When ``collapse_depth`` is None the optimizer picks the mode from
        the GEMM dimensions.  Every tile's registers are stepped, so the
        output is bit-exact and the cycle counts are measured.  This is
        much slower than the analytical path; use it for validation and
        for modest matrix sizes.
        """
        a_matrix = np.asarray(a_matrix)
        b_matrix = np.asarray(b_matrix)
        t_rows, n_dim = a_matrix.shape
        m_dim = b_matrix.shape[1]
        if collapse_depth is None:
            decision = self.decide(GemmShape(m=m_dim, n=n_dim, t=t_rows, name="execute"))
            collapse_depth = decision.collapse_depth
        return run_tiled_gemm(
            a_matrix,
            b_matrix,
            rows=self.config.rows,
            cols=self.config.cols,
            collapse_depth=collapse_depth,
            configurable=True,
        )

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #
    def frequency_table(self) -> dict[str, float]:
        """Operating frequencies (GHz) of the baseline and every supported mode."""
        return self.clock.frequency_table()

    def area_report(self) -> dict[str, float]:
        """PE and array area figures, including the reconfigurability overhead."""
        return {
            "conventional_pe_um2": self.area.conventional_pe_area().total,
            "arrayflex_pe_um2": self.area.arrayflex_pe_area().total,
            "pe_area_overhead": self.area.pe_area_overhead(),
            "conventional_array_mm2": self.area.array_area_mm2(
                self.config.rows, self.config.cols, configurable=False
            ),
            "arrayflex_array_mm2": self.area.array_area_mm2(
                self.config.rows, self.config.cols, configurable=True
            ),
        }

    # ------------------------------------------------------------------ #
    @staticmethod
    def _to_gemm(gemm: GemmShape | tuple[int, int, int]) -> GemmShape:
        if isinstance(gemm, GemmShape):
            return gemm
        m, n, t = gemm
        return GemmShape(m=m, n=n, t=t, name="adhoc")
