"""Benchmark harness for the Section IV operating points.

The paper implements both designs with a 28 nm flow and reports:
conventional SA at 2 GHz; ArrayFlex at 1.8 GHz (k = 1), 1.7 GHz (k = 2) and
1.4 GHz (k = 4); k = 3 unsupported because it does not divide a
power-of-two array.  The same numbers must fall out of the calibrated
technology model, and the closed-form Eq. (5) must agree with the
graph-based static timing analysis of the collapsed pipeline block.
"""

import pytest

from repro.eval.experiments import operating_points, render_clock
from repro.core.config import ArrayFlexConfig


def test_operating_points_and_sta(benchmark):
    result = benchmark(operating_points)

    print()
    print(render_clock(result))

    # The paper's reported operating points.
    assert result.conventional_ghz == pytest.approx(2.0, abs=1e-9)
    assert result.mode_ghz[1] == pytest.approx(1.8, abs=1e-9)
    assert result.mode_ghz[2] == pytest.approx(1.7, abs=1e-9)
    assert result.mode_ghz[4] == pytest.approx(1.4, abs=1e-9)

    # Eq. (5) and the netlist-level STA agree exactly for every depth.
    for depth in (1, 2, 3, 4):
        assert result.sta_period_ps[depth] == pytest.approx(
            result.eq5_period_ps[depth], rel=1e-12
        )

    # Deeper collapsing monotonically slows the clock.
    periods = [result.eq5_period_ps[d] for d in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(periods, periods[1:]))


def test_k3_rejected_for_power_of_two_arrays():
    """Collapsing three stages is not supported on 128x128 / 256x256 arrays."""
    with pytest.raises(ValueError):
        ArrayFlexConfig(rows=128, cols=128, supported_depths=(1, 2, 3, 4))
    with pytest.raises(ValueError):
        ArrayFlexConfig(rows=256, cols=256, supported_depths=(1, 3))
    # ...but it is legal on the 132x132 array of Fig. 5.
    config = ArrayFlexConfig.fig5_132x132()
    assert 3 in config.supported_depths
