"""Benchmark harness for Fig. 8: total execution time of the CNN suite.

Regenerates the end-to-end latency comparison of ResNet-34, MobileNetV1 and
ConvNeXt-T on 128x128 and 256x256 arrays.  The paper reports 9%-11% lower
execution latency for ArrayFlex, with the savings growing on the larger
array because more layers prefer the deepest collapse mode.
"""

import pytest

from repro.backends import create_backend
from repro.eval.experiments import comparison_grid, render_fig8, value_range
from repro.nn.models import model_zoo


@pytest.fixture(scope="module")
def fig8_result():
    return comparison_grid(list(model_zoo().values()), sizes=(128, 256))


def _at(rows, size, model_name):
    return next(
        row for row in rows if row.arrayflex.rows == size and row.model_name == model_name
    )


def test_fig8_total_execution_time(benchmark):
    models = list(model_zoo().values())
    backend = create_backend("batched")
    result = benchmark(comparison_grid, models, sizes=(128, 256), backend=backend)

    print()
    print(render_fig8(result))

    # ArrayFlex wins end-to-end for every model at every size.
    for row in result:
        assert row.arrayflex.total_time_ms < row.conventional.total_time_ms, row.model_name

    # Savings land in a band around the paper's 9%-11%.
    low, high = value_range(result, "latency_saving")
    assert 0.05 <= low
    assert high <= 0.20


def test_fig8_savings_grow_with_array_size(fig8_result):
    """Bigger arrays push more layers to k = 4 and increase the savings."""
    for model_name in {row.model_name for row in fig8_result}:
        small = _at(fig8_result, 128, model_name).arrayflex.depth_histogram()
        large = _at(fig8_result, 256, model_name).arrayflex.depth_histogram()
        k4_small = small.get(4, 0) / sum(small.values())
        k4_large = large.get(4, 0) / sum(large.values())
        assert k4_large >= k4_small, model_name


def test_fig8_convnext_dominates_runtime(fig8_result):
    """The paper normalizes Fig. 8 because ConvNeXt's runtime dwarfs the others."""
    rows = [row for row in fig8_result if row.arrayflex.rows == 128]
    convnext = next(row for row in rows if row.model_name == "ConvNeXt-T")
    for row in rows:
        assert convnext.conventional.total_time_ms >= row.conventional.total_time_ms
