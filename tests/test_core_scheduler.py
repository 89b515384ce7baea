"""Tests for scheduling whole CNNs on the reference analytical backend."""

import pytest

from repro.backends import AnalyticalBackend
from repro.core.clock import ClockModel
from repro.core.config import ArrayFlexConfig
from repro.core.energy import LayerEnergyReport
from repro.core.latency import LatencyModel
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import convnext_tiny, resnet34


@pytest.fixture(scope="module")
def config():
    return ArrayFlexConfig(rows=128, cols=128)


@pytest.fixture(scope="module")
def backend():
    return AnalyticalBackend()


class TestSingleLayerScheduling:
    def test_arrayflex_layer_uses_optimal_mode(self, backend, config):
        layer = backend.schedule_layer(GemmShape(m=512, n=4608, t=49), config)
        assert layer.collapse_depth == 4
        assert layer.clock_frequency_ghz == pytest.approx(1.4)

    def test_conventional_layer_always_k1_2ghz(self, backend, config):
        layer = backend.schedule_layer_conventional(GemmShape(m=512, n=4608, t=49), config)
        assert layer.collapse_depth == 1
        assert layer.clock_frequency_ghz == pytest.approx(2.0)

    def test_energy_consistency(self, backend, config):
        layer = backend.schedule_layer(GemmShape(m=256, n=2304, t=196), config)
        assert layer.energy_nj == pytest.approx(
            layer.power_mw * layer.execution_time_ns / 1000.0
        )

    def test_time_is_cycles_times_period(self, backend, config):
        layer = backend.schedule_layer_conventional(GemmShape(m=128, n=128, t=128), config)
        assert layer.execution_time_ns == pytest.approx(layer.cycles * 0.5)


class TestModelScheduling:
    def test_schedule_covers_every_layer(self, backend, config):
        schedule = backend.schedule_model(resnet34(), config)
        assert len(schedule.layers) == 34
        assert [layer.index for layer in schedule.layers] == list(range(1, 35))

    def test_model_name_and_accelerator_labels(self, backend, config):
        arrayflex = backend.schedule_model(resnet34(), config)
        conventional = backend.schedule_model_conventional(resnet34(), config)
        assert arrayflex.accelerator == "ArrayFlex"
        assert conventional.accelerator == "Conventional"
        assert arrayflex.model_name == "ResNet-34"

    def test_totals_are_sums(self, backend, config):
        schedule = backend.schedule_model(convnext_tiny(), config)
        assert schedule.total_time_ns == pytest.approx(
            sum(layer.execution_time_ns for layer in schedule.layers)
        )
        assert schedule.total_cycles == sum(layer.cycles for layer in schedule.layers)
        assert schedule.total_energy_nj == pytest.approx(
            sum(layer.energy_nj for layer in schedule.layers)
        )

    def test_average_power_is_energy_over_time(self, backend, config):
        schedule = backend.schedule_model(resnet34(), config)
        assert schedule.average_power_mw == pytest.approx(
            schedule.total_energy_nj * 1000.0 / schedule.total_time_ns
        )

    def test_depth_histogram_counts_all_layers(self, backend, config):
        schedule = backend.schedule_model(convnext_tiny(), config)
        assert sum(schedule.depth_histogram().values()) == len(schedule.layers)

    def test_time_share_sums_to_one(self, backend, config):
        schedule = backend.schedule_model(convnext_tiny(), config)
        assert sum(schedule.time_share_by_depth().values()) == pytest.approx(1.0)

    def test_gemm_list_input(self, backend, config):
        gemms = [GemmShape(m=64, n=64, t=64, name="g0"), GemmShape(m=32, n=32, t=32, name="g1")]
        schedule = backend.schedule_model(gemms, config, model_name="tiny")
        assert schedule.model_name == "tiny"
        assert len(schedule.layers) == 2

    def test_empty_gemm_list_rejected(self, backend, config):
        with pytest.raises(ValueError):
            backend.schedule_model([], config)

    def test_energy_report_round_trip(self, backend, config):
        schedule = backend.schedule_model(resnet34(), config)
        report = schedule.to_energy_report()
        assert report.total_time_ns == pytest.approx(schedule.total_time_ns)
        assert report.average_power_mw == pytest.approx(schedule.average_power_mw)

    def test_layer_energy_reports_match_schedule(self, backend, config):
        schedule = backend.schedule_model(resnet34(), config)
        reports = [
            LayerEnergyReport(
                gemm=layer.gemm,
                collapse_depth=layer.collapse_depth,
                power_mw=layer.power_mw,
                execution_time_ns=layer.execution_time_ns,
            )
            for layer in schedule.layers
        ]
        assert len(reports) == len(schedule.layers)
        assert sum(r.energy_nj for r in reports) == pytest.approx(schedule.total_energy_nj)


class TestCrossAcceleratorProperties:
    def test_arrayflex_never_slower_than_its_own_normal_mode(self, backend, config):
        """Per-layer mode selection can only help relative to running the whole
        model at k = 1 on ArrayFlex."""
        model = convnext_tiny()
        adaptive = backend.schedule_model(model, config)
        latency, clock = LatencyModel(config), ClockModel(config)
        fixed_k1_time = 0.0
        for gemm in model.gemms():
            cycles = latency.total_cycles(gemm, 1)
            fixed_k1_time += clock.execution_time_ns(cycles, 1)
        assert adaptive.total_time_ns <= fixed_k1_time + 1e-6

    def test_conventional_uses_fewer_or_equal_cycles_but_arrayflex_wins_time(self, backend, config):
        """ArrayFlex wins on time despite the conventional design's faster clock."""
        model = resnet34()
        arrayflex = backend.schedule_model(model, config)
        conventional = backend.schedule_model_conventional(model, config)
        assert arrayflex.total_cycles <= conventional.total_cycles
        assert arrayflex.total_time_ns < conventional.total_time_ns
