"""Layer-level functional inference on the simulated accelerators.

This module executes real (quantized, integer) convolution and linear
layers on the register-stepping systolic-array simulator, closing the
loop between the paper's Section II mapping and its Section IV
evaluation:

1. the layer is lowered with :mod:`repro.nn.im2col` to the A / B operand
   matrices of the weight-stationary GEMM;
2. the GEMM is executed tile by tile on
   :func:`repro.sim.tiling.run_tiled_gemm` with a chosen (or
   optimizer-selected) pipeline collapse depth, stepping every tile's
   registers on ``simulate_tile``;
3. the result is folded back into a feature map and can be verified
   against a direct convolution.

Running whole ImageNet-scale CNNs this way is intentionally out of scope
(the functional path is meant for validation, the analytical path for
evaluation), but any individual layer at a reduced resolution runs in
seconds and is exercised by the tests and the
``examples/quantized_conv_inference.py`` example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.optimizer import PipelineOptimizer
from repro.core.config import ArrayFlexConfig
from repro.nn.gemm_mapping import layer_to_gemm
from repro.nn.im2col import (
    direct_convolution,
    gemm_output_to_feature_map,
    grouped_im2col,
    im2col,
    weights_to_matrix,
)
from repro.nn.layers import Conv2dLayer, LinearLayer
from repro.sim.stats import SimulationStats
from repro.sim.tiling import run_tiled_gemm


@dataclass
class LayerInferenceResult:
    """Output and measurements of executing one layer on the simulator."""

    layer_name: str
    output: np.ndarray
    collapse_depth: int
    stats: SimulationStats
    verified: bool | None = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


class LayerExecutor:
    """Executes individual CNN layers on the cycle-accurate array model."""

    def __init__(self, config: ArrayFlexConfig, configurable: bool = True) -> None:
        self.config = config
        self.configurable = configurable
        self.optimizer = PipelineOptimizer(config)

    # ------------------------------------------------------------------ #
    def _select_depth(self, layer: Conv2dLayer | LinearLayer, collapse_depth: int | None) -> int:
        if collapse_depth is not None:
            if not self.configurable and collapse_depth != 1:
                raise ValueError("the conventional baseline only supports k = 1")
            return collapse_depth
        if not self.configurable:
            return 1
        return self.optimizer.best_depth(layer_to_gemm(layer)).collapse_depth

    def _run_gemm(self, a_matrix: np.ndarray, b_matrix: np.ndarray, depth: int):
        return run_tiled_gemm(
            a_matrix,
            b_matrix,
            rows=self.config.rows,
            cols=self.config.cols,
            collapse_depth=depth,
            configurable=self.configurable,
        )

    # ------------------------------------------------------------------ #
    def run_conv2d(
        self,
        layer: Conv2dLayer,
        input_tensor: np.ndarray,
        weights: np.ndarray,
        collapse_depth: int | None = None,
        verify: bool = False,
    ) -> LayerInferenceResult:
        """Execute one convolution layer; optionally verify against a direct
        convolution reference (slow, meant for tests and demos)."""
        depth = self._select_depth(layer, collapse_depth)
        stats = SimulationStats()
        output_map = np.zeros(
            (layer.out_channels, layer.output_height, layer.output_width), dtype=np.int64
        )

        if layer.groups == 1:
            a_matrix = im2col(layer, input_tensor)
            b_matrix = weights_to_matrix(layer, weights)
            result = self._run_gemm(a_matrix, b_matrix, depth)
            stats.merge(result.stats)
            output_map = gemm_output_to_feature_map(layer, result.output)
        else:
            per_group_out = layer.out_channels // layer.groups
            for group_index, (a_matrix, out_slice) in enumerate(
                grouped_im2col(layer, input_tensor)
            ):
                group_weights = weights[out_slice]
                b_matrix = group_weights.reshape(per_group_out, -1).T
                result = self._run_gemm(a_matrix, b_matrix, depth)
                stats.merge(result.stats)
                output_map[out_slice] = (
                    result.output.T.reshape(
                        per_group_out, layer.output_height, layer.output_width
                    )
                )
                del group_index

        verified: bool | None = None
        if verify:
            reference = direct_convolution(layer, input_tensor, weights)
            verified = bool(np.array_equal(output_map, reference))

        return LayerInferenceResult(
            layer_name=layer.name,
            output=output_map,
            collapse_depth=depth,
            stats=stats,
            verified=verified,
        )

    # ------------------------------------------------------------------ #
    def run_linear(
        self,
        layer: LinearLayer,
        input_vector: np.ndarray,
        weights: np.ndarray,
        collapse_depth: int | None = None,
        verify: bool = False,
    ) -> LayerInferenceResult:
        """Execute a fully-connected layer (one token per row of the input)."""
        input_vector = np.asarray(input_vector)
        if input_vector.ndim == 1:
            input_vector = input_vector[np.newaxis, :]
        if input_vector.shape != (layer.tokens, layer.in_features):
            raise ValueError(
                f"layer {layer.name!r} expects input of shape "
                f"({layer.tokens}, {layer.in_features}), got {input_vector.shape}"
            )
        weights = np.asarray(weights)
        if weights.shape != (layer.out_features, layer.in_features):
            raise ValueError(
                f"layer {layer.name!r} expects weights of shape "
                f"({layer.out_features}, {layer.in_features}), got {weights.shape}"
            )
        depth = self._select_depth(layer, collapse_depth)
        result = self._run_gemm(input_vector, weights.T, depth)

        verified: bool | None = None
        if verify:
            verified = bool(np.array_equal(result.output, input_vector @ weights.T))
        return LayerInferenceResult(
            layer_name=layer.name,
            output=result.output,
            collapse_depth=depth,
            stats=result.stats,
            verified=verified,
        )
