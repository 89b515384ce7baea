#!/usr/bin/env python3
"""Reproduce Fig. 5: execution time vs pipeline collapse depth.

The paper motivates configurable pipelining with a simple experiment:
compute two layers of ResNet-34 (layer 20 with T = 196 and layer 28 with
T = 49) on a 132x132 systolic array while sweeping the collapse depth
k in {1, 2, 3, 4} and scaling the clock accordingly.

* For layer 20 (larger T), the optimum is a *moderate* collapse (k = 2):
  deeper collapsing keeps cutting cycles but the slower clock eats the gain.
* For layer 28 (small T), the pipeline fill/drain dominates, so the deepest
  collapse (k = 4) wins.

Run with:  python examples/resnet34_layer_study.py
"""

from repro.eval.experiments import fig5_depth_sweep, render_fig5


def main() -> None:
    for layer_index in (20, 28):
        result = fig5_depth_sweep(layer_index)
        print(render_fig5(result))
        print(
            f"--> best collapse depth for layer {layer_index}: k = {result.best_depth} "
            f"({result.best_time_us:.2f} us, "
            f"{result.best_saving * 100:.1f}% faster than the conventional SA)"
        )
        print()

    print(
        "Paper reference: the execution-time minimum falls at k = 2 for layer 20\n"
        "and at k = 4 for layer 28 (Fig. 5a / Fig. 5b)."
    )


if __name__ == "__main__":
    main()
