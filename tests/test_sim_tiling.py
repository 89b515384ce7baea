"""Tests for the tiled GEMM decomposition and execution driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.latency import arrayflex_tile_cycles, tile_count
from repro.nn.workloads import random_int_matrices
from repro.sim.systolic_sim import CycleAccurateSystolicArray
from repro.sim.tiling import TilingPlan, run_tiled_gemm


class TestTilingPlan:
    def test_exact_fit(self):
        plan = TilingPlan(n_dim=16, m_dim=16, rows=8, cols=8)
        assert plan.n_tiles_vertical == 2
        assert plan.n_tiles_horizontal == 2
        assert plan.total_tiles == 4

    def test_ceiling_division(self):
        """Eq. (2)/(4): ceil(N/R) x ceil(M/C)."""
        plan = TilingPlan(n_dim=17, m_dim=9, rows=8, cols=8)
        assert plan.total_tiles == 3 * 2

    def test_smaller_than_array(self):
        plan = TilingPlan(n_dim=3, m_dim=5, rows=8, cols=8)
        assert plan.total_tiles == 1

    def test_tiles_cover_everything_without_overlap(self):
        plan = TilingPlan(n_dim=20, m_dim=13, rows=8, cols=8)
        covered = np.zeros((20, 13), dtype=int)
        for spec in plan.tiles():
            covered[spec.n_start : spec.n_stop, spec.m_start : spec.m_stop] += 1
        assert np.all(covered == 1)

    def test_tile_spec_sizes(self):
        plan = TilingPlan(n_dim=10, m_dim=10, rows=8, cols=8)
        sizes = {(spec.n_size, spec.m_size) for spec in plan.tiles()}
        assert sizes == {(8, 8), (8, 2), (2, 8), (2, 2)}

    def test_tile_count_helper_consistency(self):
        plan = TilingPlan(n_dim=300, m_dim=700, rows=128, cols=128)
        assert plan.total_tiles == tile_count(300, 700, 128, 128)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            TilingPlan(n_dim=0, m_dim=1, rows=8, cols=8)


class TestTiledExecution:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_result_matches_numpy(self, k):
        a_matrix, b_matrix = random_int_matrices(9, 20, 13, seed=k)
        result = run_tiled_gemm(a_matrix, b_matrix, rows=8, cols=8, collapse_depth=k)
        assert np.array_equal(result.output, a_matrix @ b_matrix)

    def test_every_tile_is_register_stepped(self, monkeypatch):
        """The driver has no tile engine of its own: each tile of the plan
        is one ``simulate_tile`` call."""
        stepped = []
        step = CycleAccurateSystolicArray.simulate_tile

        def counting_step(self, a_tile, b_tile):
            stepped.append(a_tile.shape)
            return step(self, a_tile, b_tile)

        monkeypatch.setattr(CycleAccurateSystolicArray, "simulate_tile", counting_step)
        a_matrix, b_matrix = random_int_matrices(6, 10, 9, seed=3)
        result = run_tiled_gemm(a_matrix, b_matrix, rows=4, cols=4, collapse_depth=2)
        assert len(stepped) == TilingPlan(n_dim=10, m_dim=9, rows=4, cols=4).total_tiles == 9
        assert np.array_equal(result.output, a_matrix @ b_matrix)

    def test_total_cycles_are_per_tile_times_tiles(self):
        """Eq. (4): the tiled latency is the per-tile latency times the tile count."""
        a_matrix, b_matrix = random_int_matrices(6, 20, 13, seed=7)
        result = run_tiled_gemm(a_matrix, b_matrix, rows=8, cols=8, collapse_depth=2)
        expected_tiles = tile_count(20, 13, 8, 8)
        assert result.tiles == expected_tiles
        assert result.total_cycles == expected_tiles * arrayflex_tile_cycles(8, 8, 6, 2)

    def test_stats_merged_across_tiles(self):
        a_matrix, b_matrix = random_int_matrices(5, 20, 10, seed=2)
        result = run_tiled_gemm(a_matrix, b_matrix, rows=8, cols=8, collapse_depth=1)
        assert result.stats.tiles_executed == result.tiles
        assert result.stats.mac_operations > 0

    def test_conventional_variant(self):
        a_matrix, b_matrix = random_int_matrices(4, 12, 9, seed=5)
        result = run_tiled_gemm(
            a_matrix, b_matrix, rows=8, cols=8, collapse_depth=1, configurable=False
        )
        assert np.array_equal(result.output, a_matrix @ b_matrix)
        assert result.stats.gated_register_cycles == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_tiled_gemm(np.ones((3, 4)), np.ones((5, 2)), rows=8, cols=8)

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(1, 20),
        st.integers(1, 20),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 100),
    )
    def test_property_tiled_equals_numpy(self, t_rows, n_dim, m_dim, k, seed):
        a_matrix, b_matrix = random_int_matrices(t_rows, n_dim, m_dim, seed=seed)
        result = run_tiled_gemm(a_matrix, b_matrix, rows=4, cols=4, collapse_depth=k)
        assert np.array_equal(result.output, a_matrix @ b_matrix)
