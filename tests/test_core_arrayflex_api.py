"""Tests for the public accelerator facade and the comparison report."""

import numpy as np
import pytest

from repro import ArrayFlexAccelerator, ArrayFlexConfig, GemmShape
from repro.core.latency import LatencyModel
from repro.nn.models import resnet34
from repro.nn.workloads import random_int_matrices


@pytest.fixture(scope="module")
def accel():
    return ArrayFlexAccelerator(rows=128, cols=128)


@pytest.fixture(scope="module")
def small_accel():
    return ArrayFlexAccelerator(rows=8, cols=8)


class TestConstruction:
    def test_default_instance(self, accel):
        assert accel.config.rows == 128
        assert accel.config.sorted_depths() == (1, 2, 4)

    def test_explicit_config_object(self):
        config = ArrayFlexConfig(rows=64, cols=64, supported_depths=(1, 2))
        accel = ArrayFlexAccelerator(config=config)
        assert accel.config is config

    def test_invalid_geometry_propagates(self):
        with pytest.raises(ValueError):
            ArrayFlexAccelerator(rows=100, cols=100, supported_depths=(1, 3))


class TestAnalyticalRuns:
    def test_decide_accepts_tuple(self, accel):
        decision = accel.decide((512, 4608, 49))
        assert decision.collapse_depth == 4

    def test_run_gemm_returns_layer_schedule(self, accel):
        layer = accel.run_gemm(GemmShape(m=256, n=2304, t=196))
        assert layer.cycles > 0
        assert layer.power_mw > 0

    def test_run_model_and_baseline(self, accel):
        model = resnet34()
        arrayflex = accel.run_model(model)
        conventional = accel.run_model_conventional(model)
        assert arrayflex.accelerator == "ArrayFlex"
        assert conventional.accelerator == "Conventional"
        assert len(arrayflex.layers) == len(conventional.layers)

    def test_comparison_report_fields(self, accel):
        report = accel.compare_with_conventional(resnet34())
        summary = report.summary()
        assert set(summary) == {
            "latency_saving",
            "power_saving",
            "edp_gain",
            "conventional_time_ms",
            "arrayflex_time_ms",
            "conventional_power_mw",
            "arrayflex_power_mw",
        }
        assert report.model_name == "ResNet-34"

    def test_headline_bands(self, accel):
        """The paper's headline claims hold for ResNet-34 on 128x128 arrays."""
        report = accel.compare_with_conventional(resnet34())
        assert 0.05 < report.latency_saving < 0.20
        assert 0.08 < report.power_saving < 0.20
        assert 1.25 < report.edp_gain < 1.95

    def test_frequency_table(self, accel):
        table = accel.frequency_table()
        assert table["conventional"] == pytest.approx(2.0)
        assert table["arrayflex_k4"] == pytest.approx(1.4)

    def test_area_report(self, accel):
        report = accel.area_report()
        assert report["arrayflex_pe_um2"] > report["conventional_pe_um2"]
        assert 0.10 < report["pe_area_overhead"] < 0.22
        assert report["arrayflex_array_mm2"] > report["conventional_array_mm2"]


class TestFunctionalExecution:
    def test_execute_gemm_bit_exact(self, small_accel):
        a_matrix, b_matrix = random_int_matrices(6, 12, 10, seed=1)
        result = small_accel.execute_gemm(a_matrix, b_matrix)
        assert np.array_equal(result.output, a_matrix @ b_matrix)

    def test_execute_gemm_explicit_depth(self, small_accel):
        a_matrix, b_matrix = random_int_matrices(4, 8, 8, seed=2)
        result = small_accel.execute_gemm(a_matrix, b_matrix, collapse_depth=2)
        assert result.collapse_depth == 2
        assert np.array_equal(result.output, a_matrix @ b_matrix)

    def test_execute_gemm_auto_depth_matches_decision(self, small_accel):
        a_matrix, b_matrix = random_int_matrices(4, 8, 8, seed=3)
        result = small_accel.execute_gemm(a_matrix, b_matrix)
        decision = small_accel.decide((8, 8, 4))
        assert result.collapse_depth == decision.collapse_depth

    def test_functional_cycles_match_analytical_schedule(self, small_accel):
        """The cycle-accurate path and the analytical path agree on cycles."""
        a_matrix, b_matrix = random_int_matrices(6, 16, 12, seed=4)
        functional = small_accel.execute_gemm(a_matrix, b_matrix, collapse_depth=2)
        gemm = GemmShape(m=12, n=16, t=6)
        analytical = LatencyModel(small_accel.config).total_cycles(gemm, 2)
        assert functional.total_cycles == analytical
