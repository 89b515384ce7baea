"""The reference analytical backend.

Wraps the closed-form model stack of :mod:`repro.core` — the latency
equations (Eqs. 1–4), the discrete Eq. (6) mode search, the Eq. (5) clock
model and the activity-aware power model — one layer at a time, through
the per-layer loops of :class:`~repro.backends.base.ExecutionBackend`.
This is the fidelity reference every other backend is tested against,
and the default backend of :class:`repro.ArrayFlexAccelerator` and
:class:`repro.ConventionalAccelerator`.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import LayerMetrics
from repro.core.optimizer import ModeDecision
from repro.nn.gemm_mapping import GemmShape


class AnalyticalBackend(ExecutionBackend):
    """Per-layer closed-form scheduling (the paper's evaluation path)."""

    name = "analytical"

    def schedule_layer(
        self, gemm: GemmShape, config: ArrayFlexConfig, index: int = 1
    ) -> LayerMetrics:
        parts = self.components(config)
        decision: ModeDecision = parts.optimizer.best_depth(gemm)
        power, activity, utilization = parts.energy.arrayflex_layer_power(
            gemm, decision.collapse_depth, decision.clock_frequency_ghz
        )
        return LayerMetrics(
            index=index,
            gemm=gemm,
            collapse_depth=decision.collapse_depth,
            cycles=decision.cycles,
            clock_frequency_ghz=decision.clock_frequency_ghz,
            execution_time_ns=decision.execution_time_ns,
            activity=activity,
            array_utilization=utilization,
            power=power,
            analytical_depth=decision.analytical_depth,
        )
