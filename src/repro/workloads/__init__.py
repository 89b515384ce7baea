"""First-class workload subsystem.

The paper's per-layer mode decision is defined on raw GEMM shapes, so any
workload that lowers to an ordered GEMM list can run through the whole
stack — accelerator facade, execution backends, batch serving,
design-space sweeps, CLI.  This package makes that a first-class notion:

* :mod:`repro.workloads.base` — the :class:`Workload` protocol (``name``
  + ``gemms()``) and the pre-lowered :class:`GemmWorkload` carrier;
* :mod:`repro.workloads.registry` — the string-keyed registry
  (:func:`register_workload` / :func:`get_workload` /
  :func:`list_workloads`) with suite grouping, which every CLI/serving
  entry point resolves names through;
* :mod:`repro.workloads.cnn` — registry entries for the CNN model zoo
  (suites ``cnn`` and ``cnn_extended``);
* :mod:`repro.workloads.transformer` — the transformer front-end:
  :class:`TransformerConfig`, per-layer attention/MLP lowering with
  distinct prefill and decode phases, and the BERT-Base / ViT-B/16 /
  GPT-2-decode named workloads (suite ``transformers``);
* :mod:`repro.workloads.batching` — the batch-scaling adapter mapping any
  workload to batched inference (T scaled by the batch size);
* :mod:`repro.workloads.synthetic` — synthetic GEMM generators
  (promoted from ``repro.nn.workloads``).

>>> from repro.workloads import get_workload, list_workloads
>>> "bert_base" in list_workloads()
True
>>> len(get_workload("bert_base").gemms())
72
>>> get_workload("gpt2_decode@bs8").gemms()[0].t
8
"""

from repro.workloads.base import GemmWorkload, Workload
from repro.workloads.registry import (
    UnknownWorkloadError,
    WorkloadEntry,
    get_suite,
    get_workload,
    list_suites,
    list_workloads,
    normalise_name,
    register_workload,
    workload_entry,
)
from repro.workloads.synthetic import (
    random_gemm_shapes,
    random_int_matrices,
    synthetic_gemm_sweep,
)

# Built-in registrations (import order matters: registry first, then the
# modules that populate it).
import repro.workloads.cnn  # noqa: F401  (registers the CNN zoo)
from repro.workloads.batching import batched_name, batched_workload
from repro.workloads.transformer import (
    TransformerConfig,
    TransformerModel,
    bert_base,
    gpt2_decode,
    vit_b16,
)

__all__ = [
    "Workload",
    "GemmWorkload",
    "WorkloadEntry",
    "UnknownWorkloadError",
    "register_workload",
    "get_workload",
    "get_suite",
    "list_workloads",
    "list_suites",
    "workload_entry",
    "normalise_name",
    "synthetic_gemm_sweep",
    "random_gemm_shapes",
    "random_int_matrices",
    "TransformerConfig",
    "TransformerModel",
    "bert_base",
    "vit_b16",
    "gpt2_decode",
    "batched_workload",
    "batched_name",
]
