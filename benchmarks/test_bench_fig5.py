"""Benchmark harness for Fig. 5: execution time vs pipeline collapse depth.

Regenerates the motivation experiment of Section III-C: ResNet-34 layers 20
and 28 as matrix multiplications on a 132x132 configurable array, sweeping
k in {1, 2, 3, 4} with the clock scaled per mode, against the conventional
fixed-pipeline SA reference line.

Paper findings reproduced here:
* layer 20 (T = 196): execution-time minimum at k = 2; deeper collapsing
  still beats the conventional SA but by less;
* layer 28 (T = 49): the deepest collapse (k = 4) is best.
"""

import pytest

from repro.eval.experiments import fig5_depth_sweep, render_fig5


@pytest.mark.parametrize(
    "layer_index, expected_best_depth",
    [(20, 2), (28, 4)],
    ids=["layer20", "layer28"],
)
def test_fig5_execution_time_vs_depth(benchmark, layer_index, expected_best_depth):
    result = benchmark(fig5_depth_sweep, layer_index)

    print()
    print(render_fig5(result))

    # The sweep covers exactly the paper's depths.
    assert [p.collapse_depth for p in result.points] == [1, 2, 3, 4]

    # The paper's qualitative finding: where the minimum falls.
    assert result.best_depth == expected_best_depth

    # The best shallow configuration beats the conventional SA...
    assert result.best_time_us < result.conventional_time_us
    # ...while ArrayFlex in normal mode is slower than the conventional SA
    # (it pays the CSA/mux delay overhead without any cycle savings).
    k1_point = result.points[0]
    assert k1_point.execution_time_us > result.conventional_time_us


def test_fig5_layer_shapes_match_paper():
    """The GEMM dimensions quoted in Section III-C fall out of the model zoo."""
    result20 = fig5_depth_sweep(20)
    result28 = fig5_depth_sweep(28)
    assert result20.gemm.as_tuple() == (256, 2304, 196)
    assert result28.gemm.as_tuple() == (512, 2304, 49)
