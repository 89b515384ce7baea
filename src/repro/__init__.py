"""ArrayFlex reproduction: a systolic array with configurable transparent pipelining.

This package is a full Python reproduction of *ArrayFlex: A Systolic Array
Architecture with Configurable Transparent Pipelining* (DATE 2023):

* :mod:`repro.core` -- the ArrayFlex contribution: latency/clock models
  (Eqs. 1-6), the per-layer pipeline-depth optimizer (Eq. 7), the
  structured :class:`~repro.core.metrics.LayerMetrics` result model, the
  pluggable per-layer activity models (:mod:`repro.core.activity`), the
  energy model and the public accelerator facade.
* :mod:`repro.arch`, :mod:`repro.sim` -- the systolic-array substrate: a
  structural PE/array model and a cycle-accurate weight-stationary
  simulator supporting normal and collapsed (shallow) pipelines.
* :mod:`repro.arith` -- bit-level adders, carry-save adders and
  multipliers backing the PE datapath.
* :mod:`repro.timing` -- the calibrated 28 nm technology, delay (Eq. 5),
  STA, area and power models.
* :mod:`repro.nn` -- the CNN workload substrate (ResNet-34, MobileNetV1,
  ConvNeXt-T) and the conv-to-GEMM lowering.
* :mod:`repro.workloads` -- the first-class workload subsystem: the
  string-keyed registry with suite grouping, the transformer front-end
  (BERT-Base / ViT-B/16 prefill, GPT-2-style decode) and the
  batch-scaling adapter for batched inference.
* :mod:`repro.baselines` -- the conventional fixed-pipeline baseline.
* :mod:`repro.backends` -- the execution backends that schedule whole
  workloads layer by layer: the per-layer analytical reference, the
  batched engine (one vectorised mode search, identical numbers)
  and the same engine on cycle counts measured by the cycle-accurate
  simulator; plus the disk-persistent decision cache
  (:mod:`repro.backends.store`) behind design-space sweeps.
* :mod:`repro.serve` -- the serving layer: the versioned
  :class:`~repro.serve.protocol.Request`/``Response`` protocol, the
  deduplicating ``submit()`` service over a thread pool, and the
  HTTP/JSON scheduler daemon (``python -m repro serve``).
* :mod:`repro.eval` -- the experiment harness regenerating every figure of
  the paper's evaluation.

Quickstart
----------
>>> from repro import ArrayFlexAccelerator
>>> from repro.nn import convnext_tiny
>>> accel = ArrayFlexAccelerator(rows=128, cols=128)
>>> report = accel.compare_with_conventional(convnext_tiny())
>>> 0.05 < report.latency_saving < 0.2
True
"""

from repro.backends import (
    AnalyticalBackend,
    BatchedCachedBackend,
    CycleAccurateBackend,
    DecisionStore,
    ExecutionBackend,
    create_backend,
)
from repro.core.activity import (
    ActivityModel,
    ConstantActivity,
    UtilizationActivity,
    create_activity_model,
)
from repro.core.arrayflex import ArrayFlexAccelerator, ComparisonReport
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import LayerMetrics
from repro.baselines.conventional import ConventionalAccelerator
from repro.nn.gemm_mapping import GemmShape
from repro.serve import Request, Response, SchedulingService
from repro.timing.technology import TechnologyModel
from repro.workloads import (
    TransformerConfig,
    get_suite,
    get_workload,
    list_suites,
    list_workloads,
    register_workload,
)

__version__ = "1.5.0"

__all__ = [
    "ActivityModel",
    "AnalyticalBackend",
    "ArrayFlexAccelerator",
    "ArrayFlexConfig",
    "BatchedCachedBackend",
    "ComparisonReport",
    "ConstantActivity",
    "ConventionalAccelerator",
    "CycleAccurateBackend",
    "DecisionStore",
    "ExecutionBackend",
    "GemmShape",
    "LayerMetrics",
    "UtilizationActivity",
    "create_activity_model",
    "Request",
    "Response",
    "SchedulingService",
    "TechnologyModel",
    "TransformerConfig",
    "create_backend",
    "get_suite",
    "get_workload",
    "list_suites",
    "list_workloads",
    "register_workload",
    "__version__",
]
