"""The conventional fixed-pipeline systolic array baseline.

The paper compares ArrayFlex against "a traditional fixed-pipeline systolic
array": same array geometry and dataflow, but

* no pipeline configurability -- it always runs the normal pipeline
  (k = 1),
* no carry-save adders or bypass multiplexers on the critical path, so it
  closes timing at the full 2 GHz,
* no clock gating of pipeline registers while a tile is in flight.

:class:`ConventionalAccelerator` exposes the same API shape as
:class:`repro.core.arrayflex.ArrayFlexAccelerator` so that experiments can
swap one for the other.
"""

from __future__ import annotations

import numpy as np

from repro.backends.analytical import AnalyticalBackend
from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.energy import EnergyModel
from repro.core.metrics import LayerMetrics, ModelSchedule
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import CnnModel
from repro.sim.tiling import TiledGemmResult, run_tiled_gemm
from repro.timing.area_model import AreaModel
from repro.timing.technology import TechnologyModel


class ConventionalAccelerator:
    """Fixed-pipeline weight-stationary systolic array (the paper's baseline)."""

    def __init__(
        self,
        rows: int = 128,
        cols: int = 128,
        technology: TechnologyModel | None = None,
    ) -> None:
        # The baseline re-uses the shared configuration object but only the
        # normal pipeline mode of it.
        self.config = ArrayFlexConfig(
            rows=rows,
            cols=cols,
            supported_depths=(1,),
            technology=technology or TechnologyModel.default_28nm(),
        )
        #: The reference backend, used only for its conventional path.
        self.backend = AnalyticalBackend()
        self.clock = ClockModel(self.config)
        self.energy = EnergyModel(self.config)
        self.area = AreaModel(self.config.technology)

    # ------------------------------------------------------------------ #
    def run_gemm(self, gemm: GemmShape | tuple[int, int, int]) -> LayerMetrics:
        """Schedule one GEMM on the fixed pipeline at the full clock."""
        return self.backend.schedule_layer_conventional(self._to_gemm(gemm), self.config)

    def run_model(self, model: CnnModel | list[GemmShape]) -> ModelSchedule:
        """Schedule every layer of a model (no per-layer choices to make)."""
        return self.backend.schedule_model_conventional(model, self.config)

    def execute_gemm(self, a_matrix: np.ndarray, b_matrix: np.ndarray) -> TiledGemmResult:
        """Execute ``A @ B`` through :func:`run_tiled_gemm` (always k = 1).

        Every tile's registers are stepped, all of them clocked every cycle.
        """
        a_matrix = np.asarray(a_matrix)
        b_matrix = np.asarray(b_matrix)
        return run_tiled_gemm(
            a_matrix,
            b_matrix,
            rows=self.config.rows,
            cols=self.config.cols,
            collapse_depth=1,
            configurable=False,
        )

    # ------------------------------------------------------------------ #
    def frequency_ghz(self) -> float:
        """The baseline's single operating frequency (2 GHz by default)."""
        return self.clock.conventional_frequency_ghz()

    def array_power_mw(self) -> float:
        """Array power at the baseline operating point."""
        return self.energy.conventional_power_mw(self.frequency_ghz())

    def pe_area_um2(self) -> float:
        """Area of one conventional PE."""
        return self.area.conventional_pe_area().total

    # ------------------------------------------------------------------ #
    @staticmethod
    def _to_gemm(gemm: GemmShape | tuple[int, int, int]) -> GemmShape:
        if isinstance(gemm, GemmShape):
            return gemm
        m, n, t = gemm
        return GemmShape(m=m, n=n, t=t, name="adhoc")
