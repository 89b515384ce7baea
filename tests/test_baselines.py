"""Tests for the conventional fixed-pipeline baseline accelerator."""

import numpy as np
import pytest

from repro import ArrayFlexAccelerator, ConventionalAccelerator, GemmShape
from repro.core.latency import LatencyModel
from repro.nn.models import mobilenet_v1
from repro.nn.workloads import random_int_matrices


@pytest.fixture(scope="module")
def baseline():
    return ConventionalAccelerator(rows=128, cols=128)


class TestBaselineBehaviour:
    def test_single_frequency(self, baseline):
        assert baseline.frequency_ghz() == pytest.approx(2.0)

    def test_run_gemm_always_normal_mode(self, baseline):
        layer = baseline.run_gemm((512, 4608, 49))
        assert layer.collapse_depth == 1
        assert layer.clock_frequency_ghz == pytest.approx(2.0)

    def test_run_model_matches_facade_baseline_path(self, baseline):
        model = mobilenet_v1()
        direct = baseline.run_model(model)
        via_facade = ArrayFlexAccelerator(rows=128, cols=128).run_model_conventional(model)
        assert direct.total_cycles == via_facade.total_cycles
        assert direct.total_time_ns == pytest.approx(via_facade.total_time_ns)
        assert direct.average_power_mw == pytest.approx(via_facade.average_power_mw)

    def test_array_power_positive_and_constant(self, baseline):
        assert baseline.array_power_mw() > 0

    def test_pe_area_smaller_than_arrayflex(self, baseline):
        arrayflex = ArrayFlexAccelerator(rows=128, cols=128)
        assert baseline.pe_area_um2() < arrayflex.area_report()["arrayflex_pe_um2"]

    def test_execute_gemm_functional(self):
        baseline = ConventionalAccelerator(rows=8, cols=8)
        a_matrix, b_matrix = random_int_matrices(5, 10, 9, seed=6)
        result = baseline.execute_gemm(a_matrix, b_matrix)
        assert np.array_equal(result.output, a_matrix @ b_matrix)
        assert result.stats.gated_register_cycles == 0

    def test_gemm_shape_object_accepted(self, baseline):
        layer = baseline.run_gemm(GemmShape(m=64, n=64, t=64))
        assert layer.cycles == LatencyModel(baseline.config).conventional_total_cycles(
            GemmShape(m=64, n=64, t=64)
        )
