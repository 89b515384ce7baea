"""Benchmark harness for Fig. 9: average power and energy-delay product.

Regenerates the power comparison of both designs over complete runs of the
three CNNs.  The paper's findings:

* ArrayFlex consumes *more* power than the conventional SA when both run in
  normal pipeline mode (extra switched capacitance), but
* it spends most of each CNN in shallow modes, where the lower clock and
  the clock-gated transparent registers win, giving 13%-15% savings on
  128x128 arrays and 17%-23% on 256x256 arrays;
* combined with the latency savings this yields a 1.4x-1.8x energy-delay
  product advantage.
"""

import pytest

from repro.backends import create_backend
from repro.core.clock import ClockModel
from repro.core.config import ArrayFlexConfig
from repro.core.energy import EnergyModel
from repro.eval.experiments import comparison_grid, render_fig9, value_range
from repro.nn.models import model_zoo


@pytest.fixture(scope="module")
def fig9_result():
    return comparison_grid(list(model_zoo().values()), sizes=(128, 256))


def _power_saving_range(rows, size):
    return value_range([row for row in rows if row.arrayflex.rows == size], "power_saving")


def test_fig9_average_power(benchmark):
    models = list(model_zoo().values())
    backend = create_backend("batched")
    result = benchmark(comparison_grid, models, sizes=(128, 256), backend=backend)

    print()
    print(render_fig9(result))

    # Power savings band: close to the paper's 13%-15% (128) and 17%-23% (256).
    low128, high128 = _power_saving_range(result, 128)
    low256, high256 = _power_saving_range(result, 256)
    assert 0.08 <= low128 and high128 <= 0.20
    assert 0.10 <= low256 and high256 <= 0.28
    # Larger arrays save more power (more time in deep collapse modes).
    assert high256 > high128

    # EDP advantage in (or near) the paper's 1.4x-1.8x window.
    edp_low, edp_high = value_range(result, "edp_gain")
    assert 1.25 <= edp_low
    assert edp_high <= 1.95


def test_fig9_normal_mode_costs_more_power(fig9_result):
    """In normal pipeline mode ArrayFlex pays for its extra hardware."""
    for row in fig9_result:
        config = ArrayFlexConfig(rows=row.arrayflex.rows, cols=row.arrayflex.cols)
        energy, clock = EnergyModel(config), ClockModel(config)
        conventional_power_mw = row.conventional.average_power_mw
        k1_power = energy.arrayflex_power_mw(1, clock.frequency_ghz(1))
        assert k1_power > conventional_power_mw * 0.98  # never cheaper
        # Shallow modes are cheaper than the conventional baseline.
        assert energy.arrayflex_power_mw(4, clock.frequency_ghz(4)) < conventional_power_mw


def test_fig9_shallow_modes_dominate_runtime(fig9_result):
    """ArrayFlex spends the majority of every run in shallow pipeline modes."""
    for row in fig9_result:
        shallow_share = sum(
            share
            for depth, share in row.arrayflex.time_share_by_depth().items()
            if depth > 1
        )
        assert shallow_share > 0.5, row.model_name
