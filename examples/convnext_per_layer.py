#!/usr/bin/env python3
"""Reproduce Fig. 7: per-layer execution time of ConvNeXt on 128x128 arrays.

ArrayFlex picks the pipeline depth independently for every CNN layer:

* the early layers (large spatial resolution, large T) run in normal
  pipeline mode -- there the conventional SA, with its higher clock, is
  actually faster;
* the middle layers prefer k = 2;
* the late layers (small T, many channels) prefer k = 4, where ArrayFlex
  is clearly faster despite its lower clock.

The example also prints the analytical optimum of Eq. (7) next to the
discrete choice, showing how closely the closed form tracks the argmin.

Run with:  python examples/convnext_per_layer.py
"""

from repro.eval.experiments import comparison_grid, render_fig7, shallow_layer_savings
from repro.nn.models import convnext_tiny


def main() -> None:
    (result,) = comparison_grid([convnext_tiny()], sizes=(128,))
    print(render_fig7(result))

    shallow_savings = shallow_layer_savings(result)
    print()
    print(
        "Layers executed in shallow mode: "
        f"{len(shallow_savings)} of {len(result.arrayflex.layers)}"
    )
    if shallow_savings:
        print(
            "Per-layer savings in shallow mode: "
            f"min {min(shallow_savings) * 100:.1f}%, "
            f"max {max(shallow_savings) * 100:.1f}%"
        )
    print(
        f"Total execution-time saving: {result.latency_saving * 100:.1f}% "
        "(paper: ~11% for ConvNeXt on 128x128 SAs)"
    )


if __name__ == "__main__":
    main()
