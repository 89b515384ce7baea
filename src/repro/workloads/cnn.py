"""Registry entries for the CNN model zoo.

The paper's three evaluated CNNs form the ``cnn`` suite (the workload
mix of Figs. 8 and 9); the extra zoo models form ``cnn_extended``.
Display names are registered as aliases, so both ``resnet34`` and
``ResNet-34`` resolve.
"""

from __future__ import annotations

from repro.nn.models import convnext_tiny, mobilenet_v1, resnet34, resnet50, vgg16
from repro.workloads.registry import register_workload

register_workload(
    "resnet34",
    resnet34,
    suite="cnn",
    description="ResNet-34 at 224x224 (paper Section IV workload)",
    aliases=("ResNet-34",),
)
register_workload(
    "mobilenet_v1",
    mobilenet_v1,
    suite="cnn",
    description="MobileNetV1 at 224x224 (paper Section IV workload)",
    aliases=("MobileNetV1",),
)
register_workload(
    "convnext_tiny",
    convnext_tiny,
    suite="cnn",
    description="ConvNeXt-T at 224x224 (paper Section IV workload)",
    aliases=("ConvNeXt-T",),
)
register_workload(
    "resnet50",
    resnet50,
    suite="cnn_extended",
    description="ResNet-50 bottleneck trunk (beyond-paper CNN)",
    aliases=("ResNet-50",),
)
register_workload(
    "vgg16",
    vgg16,
    suite="cnn_extended",
    description="VGG-16, the classic large-T stress case (beyond-paper CNN)",
    aliases=("VGG-16",),
)
