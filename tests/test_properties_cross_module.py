"""Cross-module property-based tests.

These hypothesis tests pin down the invariants that tie the reproduction's
layers together, over randomly drawn configurations and workloads rather
than hand-picked examples:

* the closed-form latency model always agrees with the structural dataflow
  schedule and with the cycle-accurate simulator;
* Eq. (6) mode selection is consistent (never beaten by another supported
  mode) and degrades gracefully to the conventional design;
* power and energy accounting is internally consistent (energy = power x
  time, EDP = energy x time) for any schedule;
* the conv -> GEMM lowering conserves multiply-accumulate work.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.dataflow import WeightStationaryDataflow
from repro.backends import AnalyticalBackend
from repro.core.clock import ClockModel
from repro.core.config import ArrayFlexConfig
from repro.core.energy import EnergyModel
from repro.core.latency import (
    LatencyModel,
    arrayflex_tile_cycles,
    arrayflex_total_cycles,
    tile_count,
)
from repro.core.optimizer import PipelineOptimizer
from repro.nn.gemm_mapping import GemmShape, layer_to_gemm
from repro.nn.layers import Conv2dLayer
from repro.nn.workloads import random_int_matrices
from repro.sim.systolic_sim import CycleAccurateSystolicArray


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
array_dims = st.sampled_from([(4, 4), (8, 8), (16, 16), (8, 16), (16, 8)])
supported_k = st.sampled_from([1, 2, 4])
gemm_shapes = st.builds(
    GemmShape,
    m=st.integers(1, 2048),
    n=st.integers(1, 2048),
    t=st.integers(1, 4096),
)


class TestLatencyInvariants:
    @given(array_dims, supported_k, st.integers(1, 200))
    def test_dataflow_schedule_equals_closed_form(self, dims, k, t_rows):
        rows, cols = dims
        dataflow = WeightStationaryDataflow(rows, cols, k)
        assert dataflow.tile_latency_cycles(t_rows) == arrayflex_tile_cycles(
            rows, cols, t_rows, k
        )

    @given(gemm_shapes, array_dims, supported_k)
    def test_tiled_cycles_scale_linearly_with_tile_count(self, gemm, dims, k):
        rows, cols = dims
        tiles = tile_count(gemm.n, gemm.m, rows, cols)
        assert arrayflex_total_cycles(gemm, rows, cols, k) == tiles * arrayflex_tile_cycles(
            rows, cols, gemm.t, k
        )

    @settings(max_examples=15, deadline=None)
    @given(array_dims, supported_k, st.integers(1, 10), st.integers(0, 10_000))
    def test_simulator_is_cycle_and_bit_exact(self, dims, k, t_rows, seed):
        rows, cols = dims
        if rows % k or cols % k:
            pytest.skip("depth does not divide this array")
        a_tile, b_tile = random_int_matrices(t_rows, rows, cols, seed=seed)
        result = CycleAccurateSystolicArray(rows, cols, collapse_depth=k).simulate_tile(
            a_tile, b_tile
        )
        assert np.array_equal(result.output, a_tile @ b_tile)
        assert result.total_cycles == arrayflex_tile_cycles(rows, cols, t_rows, k)


class TestOptimizerInvariants:
    @settings(max_examples=60)
    @given(gemm_shapes)
    def test_selected_mode_is_pareto_consistent(self, gemm):
        optimizer = PipelineOptimizer(ArrayFlexConfig(rows=128, cols=128))
        decision = optimizer.best_depth(gemm)
        assert decision.collapse_depth in (1, 2, 4)
        assert min(decision.per_depth_time_ns.values()) == pytest.approx(
            decision.execution_time_ns
        )

    @settings(max_examples=60)
    @given(gemm_shapes)
    def test_arrayflex_cycles_never_exceed_conventional(self, gemm):
        config = ArrayFlexConfig(rows=128, cols=128)
        backend = AnalyticalBackend()
        arrayflex = backend.schedule_layer(gemm, config)
        conventional = backend.schedule_layer_conventional(gemm, config)
        assert arrayflex.cycles <= conventional.cycles

    @settings(max_examples=60)
    @given(gemm_shapes)
    def test_arrayflex_time_never_worse_than_its_normal_mode(self, gemm):
        """Adaptive mode selection can lose to the 2 GHz conventional design on
        large-T layers, but it can never lose to ArrayFlex pinned at k = 1."""
        config = ArrayFlexConfig(rows=128, cols=128)
        adaptive = AnalyticalBackend().schedule_layer(gemm, config)
        pinned_cycles = LatencyModel(config).total_cycles(gemm, 1)
        pinned_time = ClockModel(config).execution_time_ns(pinned_cycles, 1)
        assert adaptive.execution_time_ns <= pinned_time + 1e-9

    @settings(max_examples=40)
    @given(gemm_shapes, st.sampled_from([64, 128, 256]))
    def test_analytical_depth_positive_and_finite(self, gemm, size):
        optimizer = PipelineOptimizer(ArrayFlexConfig(rows=size, cols=size))
        k_hat = optimizer.analytical_optimal_depth(gemm)
        assert 0.0 < k_hat < 100.0


class TestEnergyInvariants:
    @settings(max_examples=30)
    @given(st.lists(gemm_shapes, min_size=1, max_size=8))
    def test_schedule_energy_identities(self, gemms):
        schedule = AnalyticalBackend().schedule_model(
            list(gemms), ArrayFlexConfig(rows=128, cols=128), model_name="random"
        )
        assert schedule.total_energy_nj == pytest.approx(
            sum(l.energy_nj for l in schedule.layers)
        )
        assert schedule.energy_delay_product == pytest.approx(
            schedule.total_energy_nj * schedule.total_time_ns
        )
        assert schedule.average_power_mw == pytest.approx(
            schedule.total_energy_nj * 1e3 / schedule.total_time_ns
        )
        shares = schedule.time_share_by_depth()
        assert sum(shares.values()) == pytest.approx(1.0)

    @settings(max_examples=30)
    @given(st.lists(gemm_shapes, min_size=1, max_size=6))
    def test_power_bounded_by_mode_extremes(self, gemms):
        """The run-average ArrayFlex power always lies between the cheapest and
        the most expensive per-mode power."""
        config = ArrayFlexConfig(rows=128, cols=128)
        schedule = AnalyticalBackend().schedule_model(
            list(gemms), config, model_name="random"
        )
        energy, clock = EnergyModel(config), ClockModel(config)
        mode_powers = [
            energy.arrayflex_power_mw(k, clock.frequency_ghz(k))
            for k in config.sorted_depths()
        ]
        assert min(mode_powers) - 1e-6 <= schedule.average_power_mw <= max(mode_powers) + 1e-6


class TestLoweringInvariants:
    @settings(max_examples=40)
    @given(
        st.integers(1, 64),
        st.integers(1, 64),
        st.sampled_from([1, 3, 5]),
        st.sampled_from([1, 2]),
        st.sampled_from([8, 14, 28]),
    )
    def test_dense_conv_lowering_conserves_macs(self, cin, cout, kernel, stride, size):
        layer = Conv2dLayer(
            name="p",
            in_channels=cin,
            out_channels=cout,
            kernel_size=kernel,
            stride=stride,
            padding=kernel // 2,
            input_height=size,
            input_width=size,
        )
        assert layer_to_gemm(layer).macs == layer.macs
