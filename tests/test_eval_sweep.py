"""Tests for the sweep utilities."""

import pytest

from repro.core.config import ArrayFlexConfig
from repro.eval.sweep import collapse_depth_sweep
from repro.nn.gemm_mapping import GemmShape


class TestCollapseDepthSweep:
    def test_supported_depths_by_default(self):
        config = ArrayFlexConfig(rows=128, cols=128)
        points = collapse_depth_sweep(GemmShape(m=256, n=2304, t=196), config)
        assert [p.collapse_depth for p in points] == [1, 2, 4]

    def test_explicit_depths_including_unsupported(self):
        """Fig. 5 evaluates k = 3 even though the shipped design omits it."""
        config = ArrayFlexConfig.fig5_132x132()
        points = collapse_depth_sweep(
            GemmShape(m=256, n=2304, t=196), config, depths=(1, 2, 3, 4)
        )
        assert [p.collapse_depth for p in points] == [1, 2, 3, 4]
        k3 = points[2]
        assert k3.clock_frequency_ghz == pytest.approx(1.5)

    def test_cycles_decrease_with_depth(self):
        config = ArrayFlexConfig(rows=128, cols=128)
        points = collapse_depth_sweep(GemmShape(m=512, n=2304, t=49), config)
        cycles = [p.cycles for p in points]
        assert cycles == sorted(cycles, reverse=True)

    def test_illegal_depth_rejected(self):
        config = ArrayFlexConfig(rows=128, cols=128)
        with pytest.raises(ValueError):
            collapse_depth_sweep(GemmShape(m=1, n=1, t=1), config, depths=(3,))

    def test_time_consistency(self):
        config = ArrayFlexConfig(rows=128, cols=128)
        for point in collapse_depth_sweep(GemmShape(m=256, n=2304, t=196), config):
            expected_us = point.cycles / point.clock_frequency_ghz / 1000.0
            assert point.execution_time_us == pytest.approx(expected_us, rel=1e-6)
