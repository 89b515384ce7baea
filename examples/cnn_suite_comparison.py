#!/usr/bin/env python3
"""Reproduce Figs. 8 and 9: the full CNN suite on 128x128 and 256x256 arrays.

For ResNet-34, MobileNetV1 and ConvNeXt-T this example reports, per array
size:

* Fig. 8 -- total execution time of the conventional SA and ArrayFlex
  (absolute and normalized), and the per-model latency saving;
* Fig. 9 -- time-weighted average power of both designs, the share of time
  ArrayFlex spends in each pipeline mode, the power saving and the
  energy-delay-product (EDP) improvement.

Run with:  python examples/cnn_suite_comparison.py
"""

from repro.eval import Fig6Experiment
from repro.eval.experiments import comparison_grid, render_fig8, render_fig9, value_range
from repro.nn.models import model_zoo


def main() -> None:
    area = Fig6Experiment()
    print(area.render())
    print()

    grid = comparison_grid(list(model_zoo().values()), sizes=(128, 256))
    print(render_fig8(grid))
    low, high = value_range(grid, "latency_saving")
    print(
        f"\nLatency savings across models and sizes: "
        f"{low * 100:.1f}% .. {high * 100:.1f}%  (paper: 9% .. 11%)\n"
    )

    print(render_fig9(grid))
    for size in (128, 256):
        low, high = value_range(
            [row for row in grid if row.arrayflex.rows == size], "power_saving"
        )
        print(
            f"\nPower savings on {size}x{size} arrays: "
            f"{low * 100:.1f}% .. {high * 100:.1f}%"
            + ("  (paper: 13% .. 15%)" if size == 128 else "  (paper: 17% .. 23%)")
        )
    edp_low, edp_high = value_range(grid, "edp_gain")
    print(
        f"\nEnergy-delay-product improvement: {edp_low:.2f}x .. {edp_high:.2f}x "
        "(paper: 1.4x .. 1.8x)"
    )


if __name__ == "__main__":
    main()
