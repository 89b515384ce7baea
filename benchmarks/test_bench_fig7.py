"""Benchmark harness for Fig. 7: per-layer execution time of ConvNeXt.

Regenerates the per-layer comparison on 128x128 arrays.  The paper's
qualitative findings:

* the first ~11 layers run best in normal pipeline mode (the conventional
  SA, with its higher clock, is faster there);
* the middle layers prefer k = 2 and the last layers k = 4;
* per-layer savings reach up to ~26% and the total execution time drops by
  ~11%;
* the analytical optimum of Eq. (7) tracks the per-layer choice closely.
"""

from repro.backends import create_backend
from repro.eval.experiments import comparison_grid, render_fig7, shallow_layer_savings
from repro.nn.models import convnext_tiny


def test_fig7_convnext_per_layer(benchmark):
    model = convnext_tiny()
    backend = create_backend("batched")
    (result,) = benchmark(comparison_grid, [model], sizes=(128,), backend=backend)

    print()
    print(render_fig7(result))

    layers = result.arrayflex.layers
    depths = [layer.collapse_depth for layer in layers]

    # Early layers (large T): normal pipeline.
    assert all(depth == 1 for depth in depths[:10])
    # Late layers (small T): deepest supported collapse.
    assert all(depth == 4 for depth in depths[-9:])
    # The middle of the network uses the intermediate mode.
    assert 2 in depths

    # Depth is monotone along the network in the aggregate sense: the mean
    # depth of the last third exceeds the mean depth of the first third.
    third = len(depths) // 3
    assert sum(depths[-third:]) / third > sum(depths[:third]) / third

    # Total saving close to the paper's ~11%.
    assert 0.06 <= result.latency_saving <= 0.16

    # Per-layer savings of shallow layers stay within a plausible band and
    # reach at least ~15% for the most favourable layers (paper: up to 26%).
    shallow = shallow_layer_savings(result)
    assert shallow, "some layers must run in shallow mode"
    assert max(shallow) >= 0.15
    assert max(shallow) <= 0.35

    # Eq. (7) tracks the discrete selection: for layers chosen at k = 4 the
    # analytical optimum is well above 2, for k = 1 layers it is near 1.
    for layer in layers:
        if layer.collapse_depth == 4:
            assert layer.analytical_depth > 2.0
        if layer.collapse_depth == 1:
            assert layer.analytical_depth < 1.6
