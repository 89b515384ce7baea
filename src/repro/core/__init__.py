"""ArrayFlex core: the paper's primary contribution.

This package layers the ArrayFlex-specific models on top of the substrates:

* :mod:`repro.core.config` -- accelerator configuration (array size,
  supported collapse depths, technology, activity model).
* :mod:`repro.core.activity` -- pluggable per-layer activity models
  (constant, tiling-utilization derived).
* :mod:`repro.core.metrics` -- the structured per-layer result model
  (:class:`~repro.core.metrics.LayerMetrics`) and the per-run
  :class:`~repro.core.metrics.ModelSchedule` shared by every backend.
* :mod:`repro.core.latency` -- cycle-count models, Eqs. (1)-(4).
* :mod:`repro.core.clock` -- per-mode operating points, Eq. (5).
* :mod:`repro.core.optimizer` -- per-layer pipeline-depth selection,
  Eq. (7) and discrete search.
* :mod:`repro.core.energy` -- power, energy and energy-delay product.
* :mod:`repro.core.arrayflex` -- the public accelerator facade
  (:class:`~repro.core.arrayflex.ArrayFlexAccelerator`).

Scheduling whole workloads, layer by layer, is the job of the execution
backends in :mod:`repro.backends`, which compose these models.
"""

from repro.core.activity import (
    ACTIVITY_MODELS,
    ActivityModel,
    ConstantActivity,
    UtilizationActivity,
    create_activity_model,
    tiling_utilization,
)
from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.latency import LatencyModel
from repro.core.metrics import InvalidWorkloadError, LayerMetrics, ModelSchedule
from repro.core.optimizer import ModeDecision, PipelineOptimizer
from repro.core.energy import EnergyModel, LayerEnergyReport, RunEnergyReport
from repro.core.arrayflex import ArrayFlexAccelerator, ComparisonReport
from repro.core.design_space import DesignPoint, DesignPointResult, DesignSpaceExplorer

__all__ = [
    "ACTIVITY_MODELS",
    "ActivityModel",
    "ArrayFlexConfig",
    "ConstantActivity",
    "InvalidWorkloadError",
    "LayerMetrics",
    "UtilizationActivity",
    "create_activity_model",
    "tiling_utilization",
    "DesignPoint",
    "DesignPointResult",
    "DesignSpaceExplorer",
    "LatencyModel",
    "ClockModel",
    "PipelineOptimizer",
    "ModeDecision",
    "ModelSchedule",
    "EnergyModel",
    "LayerEnergyReport",
    "RunEnergyReport",
    "ArrayFlexAccelerator",
    "ComparisonReport",
]
