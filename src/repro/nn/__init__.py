"""CNN workload substrate.

The paper evaluates ArrayFlex by executing single-batch inference of three
CNNs -- ResNet-34, MobileNet(V1) and ConvNeXt(-Tiny) -- where every layer
is lowered to a GEMM and executed on the systolic array.  This package
provides that workload substrate:

* :mod:`repro.nn.layers` -- declarative layer descriptors (standard,
  depthwise and pointwise convolutions, fully-connected layers) with shape
  arithmetic (output resolution, MACs, parameters).
* :mod:`repro.nn.gemm_mapping` -- the im2col lowering of each layer to the
  (M, N, T) GEMM dimensions the latency model consumes (paper Section II).
* :mod:`repro.nn.models` -- the layer tables of the three evaluated CNNs,
  reproducing the exact shapes the paper quotes (e.g. ResNet-34 layer 20 =
  (256, 2304, 196) and layer 28 = (512, 2304, 49)).
* :mod:`repro.nn.workloads` -- synthetic GEMM generators used by the
  benchmarks and the property-based tests.

The first-class workload layer on top of this substrate — the string-keyed
registry, the transformer front-end and the batch-scaling adapter — lives
in :mod:`repro.workloads`.
"""

from repro.nn.layers import Conv2dLayer, LinearLayer, LayerKind
from repro.nn.gemm_mapping import GemmShape, layer_to_gemm, model_to_gemms
from repro.nn.im2col import direct_convolution, im2col, weights_to_matrix

# NOTE: repro.nn.inference (LayerExecutor) is intentionally not re-exported
# here: it depends on repro.core, which itself consumes this package's GEMM
# mapping, and eagerly importing it would create a circular import.  Import
# it explicitly via ``from repro.nn.inference import LayerExecutor``.
from repro.nn.models import (
    CnnModel,
    convnext_tiny,
    mobilenet_v1,
    model_zoo,
    resnet34,
)
from repro.nn.workloads import synthetic_gemm_sweep

__all__ = [
    "LayerKind",
    "Conv2dLayer",
    "LinearLayer",
    "GemmShape",
    "im2col",
    "weights_to_matrix",
    "direct_convolution",
    "layer_to_gemm",
    "model_to_gemms",
    "CnnModel",
    "resnet34",
    "mobilenet_v1",
    "convnext_tiny",
    "model_zoo",
    "synthetic_gemm_sweep",
]
