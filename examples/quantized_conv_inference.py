#!/usr/bin/env python3
"""Run a real quantized convolution layer on the cycle-accurate ArrayFlex model.

This example closes the loop of the paper's Section II end to end:

1. a floating-point activation tensor and kernel set are symmetrically
   quantized to integers (the paper evaluates 32-bit quantized inference;
   8 bits are used here so the example prints nicely);
2. the convolution is lowered to its weight-stationary GEMM with im2col;
3. the GEMM is executed tile by tile on the register-stepping simulator
   in the pipeline mode the Eq. (7)/Eq. (6) optimizer selects;
4. the result is folded back into a feature map and verified against a
   direct convolution.

Run with:  python examples/quantized_conv_inference.py
"""

import numpy as np

from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.eval.report import format_table
from repro.nn.gemm_mapping import layer_to_gemm
from repro.nn.inference import LayerExecutor
from repro.nn.layers import Conv2dLayer
from repro.arith.fixed_point import quantize_symmetric
from repro.timing.activity_power import ActivityBasedPowerEstimator


def main() -> None:
    # A late-CNN-style layer at reduced resolution so the cycle-accurate
    # simulation finishes in a few seconds.
    layer = Conv2dLayer(
        name="demo_conv",
        in_channels=32,
        out_channels=48,
        kernel_size=3,
        stride=1,
        padding=1,
        input_height=10,
        input_width=10,
    )
    rng = np.random.default_rng(42)
    activations, _ = quantize_symmetric(rng.normal(size=(32, 10, 10)), width=8)
    weights, _ = quantize_symmetric(rng.normal(size=(48, 32, 3, 3)), width=8)

    config = ArrayFlexConfig(rows=32, cols=32, supported_depths=(1, 2, 4))
    clock = ClockModel(config)
    gemm = layer_to_gemm(layer)
    print(f"layer {layer.name}: lowered to GEMM (M={gemm.m}, N={gemm.n}, T={gemm.t})\n")

    rows = []
    for label, configurable, depth in (
        ("conventional (k=1 @ 2.0 GHz)", False, 1),
        ("ArrayFlex, optimizer-selected mode", True, None),
    ):
        executor = LayerExecutor(config, configurable=configurable)
        result = executor.run_conv2d(layer, activations, weights, collapse_depth=depth, verify=True)
        if configurable:
            period_ns = clock.period_ns(result.collapse_depth)
        else:
            period_ns = clock.conventional_period_ns()
        estimator = ActivityBasedPowerEstimator(
            rows=config.rows,
            cols=config.cols,
            collapse_depth=result.collapse_depth,
            technology=config.technology,
            configurable=configurable,
        )
        power_w = estimator.average_power_mw(result.stats, period_ns) / 1000.0
        rows.append(
            (
                label,
                result.collapse_depth,
                result.total_cycles,
                result.total_cycles * period_ns / 1000.0,
                power_w,
                result.verified,
            )
        )

    print(
        format_table(
            ["design", "k", "cycles", "time (us)", "core power (W)", "bit-exact"],
            rows,
            title="Quantized 3x3 convolution on a 32x32 systolic array (cycle-accurate)",
        )
    )
    print(
        "\nBoth designs produce the exact integer feature map of a direct convolution,\n"
        "and ArrayFlex finishes earlier despite its slower clock (fewer cycles in\n"
        "shallow mode).  For a single small layer like this one the measured core\n"
        "power of the two designs is comparable -- the paper's 13%-23% power savings\n"
        "come from full CNN runs dominated by large layers in deep collapse modes;\n"
        "see benchmarks/test_bench_fig9.py for that experiment."
    )


if __name__ == "__main__":
    main()
