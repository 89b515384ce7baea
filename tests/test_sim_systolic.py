"""Tests for the vectorised cycle-accurate systolic array simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.dataflow import WeightStationaryDataflow
from repro.core.latency import arrayflex_tile_cycles
from repro.nn.workloads import random_int_matrices
from repro.sim.systolic_sim import CycleAccurateSystolicArray, stepping_dtype
from repro.sim.tiling import run_tiled_gemm


class TestConstruction:
    def test_depth_must_divide_dimensions(self):
        with pytest.raises(ValueError):
            CycleAccurateSystolicArray(8, 8, collapse_depth=3)

    def test_conventional_only_k1(self):
        with pytest.raises(ValueError):
            CycleAccurateSystolicArray(8, 8, collapse_depth=2, configurable=False)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CycleAccurateSystolicArray(0, 8)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_single_tile_matches_numpy(self, k):
        array = CycleAccurateSystolicArray(8, 8, collapse_depth=k)
        a_tile, b_tile = random_int_matrices(10, 8, 8, seed=k)
        result = array.simulate_tile(a_tile, b_tile)
        assert np.array_equal(result.output, a_tile @ b_tile)

    def test_partial_tile(self):
        array = CycleAccurateSystolicArray(16, 16, collapse_depth=4)
        a_tile, b_tile = random_int_matrices(7, 11, 5, seed=3)
        result = array.simulate_tile(a_tile, b_tile)
        assert result.output.shape == (7, 5)
        assert np.array_equal(result.output, a_tile @ b_tile)

    def test_t_equal_one(self):
        array = CycleAccurateSystolicArray(8, 8, collapse_depth=2)
        a_tile, b_tile = random_int_matrices(1, 8, 8, seed=1)
        result = array.simulate_tile(a_tile, b_tile)
        assert np.array_equal(result.output, a_tile @ b_tile)

    def test_all_zero_inputs(self):
        array = CycleAccurateSystolicArray(4, 4, collapse_depth=2)
        result = array.simulate_tile(np.zeros((3, 4), dtype=np.int64), np.zeros((4, 4), dtype=np.int64))
        assert np.all(result.output == 0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(4, 4), (8, 8), (8, 4), (4, 8), (16, 8)]),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 12),
        st.integers(0, 1000),
    )
    def test_random_shapes_and_modes(self, dims, k, t_rows, seed):
        """Property: for any legal configuration the simulator is bit-exact
        and cycle-exact with respect to Eqs. (1)/(3)."""
        rows, cols = dims
        array = CycleAccurateSystolicArray(rows, cols, collapse_depth=k)
        rows_used = 1 + seed % rows
        cols_used = 1 + (seed // 7) % cols
        a_tile, b_tile = random_int_matrices(t_rows, rows_used, cols_used, seed=seed)
        result = array.simulate_tile(a_tile, b_tile)
        assert np.array_equal(result.output, a_tile @ b_tile)
        assert result.total_cycles == arrayflex_tile_cycles(rows, cols, t_rows, k)


@st.composite
def tile_batches(draw):
    """A random geometry, mode and batch of same-depth tile shapes."""
    k = draw(st.sampled_from([1, 2, 4]))
    rows = k * draw(st.integers(1, 4))
    cols = k * draw(st.integers(1, 4))
    t_rows = draw(st.integers(1, 24))
    n_tiles = draw(st.integers(1, 5))
    shapes = [
        (draw(st.integers(1, rows)), draw(st.integers(1, cols)))
        for _ in range(n_tiles)
    ]
    seed = draw(st.integers(0, 2**31 - 1))
    magnitude = draw(st.sampled_from([2**7, 2**31]))
    return rows, cols, k, t_rows, shapes, seed, magnitude


INT32_MAX = 2**31 - 1

#: (A, B, width the registers must step in), each exact at int64.
WIDTH_CASES = {
    # (2^31 - 1) * 1 * 1: the largest product still fits int32.
    "bound_int32_max": (
        np.array([[INT32_MAX], [-INT32_MAX], [3]], dtype=np.int64),
        np.array([[1, -1, 0, 1]], dtype=np.int64),
        np.int32,
    ),
    # 2^15 * 2^15 * 2: two products of 2^30 sum to 2^31, one past int32
    # (across row groups at k = 1, inside one group at k = 2).
    "bound_2_pow_31": (
        np.full((3, 2), 2**15, dtype=np.int64),
        np.full((2, 4), 2**15, dtype=np.int64),
        np.int64,
    ),
    # np.abs of the int64 minimum is negative; the bound must not be.
    "int64_min_operand": (
        np.array([[np.iinfo(np.int64).min, 1], [2, -3]], dtype=np.int64),
        np.array([[1, -1, 2], [5, 7, 0]], dtype=np.int64),
        np.int64,
    ),
}


class TestRegisterWidth:
    """The registers step in int32 exactly when nothing they hold can
    overflow it (``max|A| * max|B| * rows_used <= 2^31 - 1``); the output
    is int64 either way."""

    @settings(max_examples=60, deadline=None)
    @given(tile_batches())
    def test_stepped_tiles_match_matmul_everywhere(self, batch):
        """Random geometries, modes and edge tiles, with operands in the
        int8 range (the registers step in int32) and in +-2^31 (they step
        in int64 and the sums wrap): every output is ``A @ B`` in int64."""
        rows, cols, k, t_rows, shapes, seed, magnitude = batch
        array = CycleAccurateSystolicArray(rows=rows, cols=cols, collapse_depth=k)
        expected_width = np.int32 if magnitude == 2**7 else np.int64
        rng = np.random.default_rng(seed)
        for rows_used, cols_used in shapes:
            a_tile = rng.integers(
                -magnitude, magnitude, size=(t_rows, rows_used), dtype=np.int64
            )
            b_tile = rng.integers(
                -magnitude, magnitude, size=(rows_used, cols_used), dtype=np.int64
            )
            result = array.simulate_tile(a_tile, b_tile)
            assert stepping_dtype(a_tile, b_tile) is expected_width
            assert result.output.dtype == np.int64
            assert np.array_equal(result.output, a_tile @ b_tile)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", sorted(WIDTH_CASES))
    def test_width_and_exact_int64_output(self, case, k):
        a_tile, b_tile, width = WIDTH_CASES[case]
        assert stepping_dtype(a_tile, b_tile) is width
        result = CycleAccurateSystolicArray(4, 4, collapse_depth=k).simulate_tile(
            a_tile, b_tile
        )
        assert result.output.dtype == np.int64
        assert np.array_equal(result.output, a_tile @ b_tile)

    def test_int8_operands_step_in_int32_up_to_131071_rows(self):
        """The cycle backend's probe operands lie in [-128, 127]."""
        for rows_used, width in ((131_071, np.int32), (131_072, np.int64)):
            a_tile = np.full((1, rows_used), -128, dtype=np.int64)
            b_tile = np.full((rows_used, 1), -128, dtype=np.int64)
            assert stepping_dtype(a_tile, b_tile) is width

    def test_tags_past_int32_step_in_int64(self):
        """A tag is a row index of A; a zero-width A of 2^31 + 1 rows
        takes no memory but has tags past int32."""
        a_tile = np.zeros((2**31 + 1, 0), dtype=np.int64)
        b_tile = np.zeros((0, 4), dtype=np.int64)
        assert stepping_dtype(a_tile, b_tile) is np.int64
        assert stepping_dtype(a_tile[: 2**31], b_tile) is np.int32


class TestCyclesAndStats:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_measured_cycles_equal_closed_form(self, k):
        array = CycleAccurateSystolicArray(16, 16, collapse_depth=k)
        a_tile, b_tile = random_int_matrices(9, 16, 16, seed=k)
        result = array.simulate_tile(a_tile, b_tile)
        assert result.total_cycles == array.expected_tile_cycles(9)
        assert result.total_cycles == arrayflex_tile_cycles(16, 16, 9, k)

    def test_cycles_are_observed_not_copied_from_the_closed_form(self, monkeypatch):
        """A wrong closed form only lengthens the stream; the count comes
        from the last south-edge capture."""
        closed_form = WeightStationaryDataflow.compute_cycles
        monkeypatch.setattr(
            WeightStationaryDataflow,
            "compute_cycles",
            lambda self, t_rows: closed_form(self, t_rows) + 7,
        )
        array = CycleAccurateSystolicArray(16, 16, collapse_depth=1)
        a_tile, b_tile = random_int_matrices(9, 16, 16, seed=1)
        result = array.simulate_tile(a_tile, b_tile)
        assert result.total_cycles == 55  # Eq. (1): 2R + C + T - 2
        assert np.array_equal(result.output, a_tile @ b_tile)

    def test_missing_captures_raise(self, monkeypatch):
        schedule = WeightStationaryDataflow.west_edge_schedule

        def lose_last_activation(self, t_rows):
            tags = schedule(self, t_rows)
            tags[tags == t_rows - 1] = -1
            return tags

        monkeypatch.setattr(
            WeightStationaryDataflow, "west_edge_schedule", lose_last_activation
        )
        array = CycleAccurateSystolicArray(8, 8, collapse_depth=2)
        a_tile, b_tile = random_int_matrices(5, 8, 8, seed=0)
        with pytest.raises(RuntimeError, match="captured 32 of the 40 outputs"):
            array.simulate_tile(a_tile, b_tile)

    def test_mac_count_equals_dense_work(self):
        """Every (t, row, col-group broadcast) multiplication is counted once;
        for a full tile that is T x R x C MACs."""
        array = CycleAccurateSystolicArray(4, 4, collapse_depth=1)
        a_tile, b_tile = random_int_matrices(5, 4, 4, seed=2)
        result = array.simulate_tile(a_tile, b_tile)
        assert result.stats.mac_operations == 5 * 4 * 4

    def test_utilization_increases_with_collapsing(self):
        """Shallow modes shrink the fill/drain bubbles, so utilisation rises."""
        results = {}
        for k in (1, 2, 4):
            array = CycleAccurateSystolicArray(8, 8, collapse_depth=k)
            a_tile, b_tile = random_int_matrices(6, 8, 8, seed=4)
            results[k] = array.simulate_tile(a_tile, b_tile).stats.pe_utilization
        assert results[1] < results[2] < results[4]

    def test_gated_register_fraction(self):
        for k in (1, 2, 4):
            array = CycleAccurateSystolicArray(8, 8, collapse_depth=k)
            a_tile, b_tile = random_int_matrices(4, 8, 8, seed=k)
            stats = array.simulate_tile(a_tile, b_tile).stats
            assert stats.gated_register_fraction == pytest.approx((k - 1) / k)

    def test_conventional_never_gates(self):
        array = CycleAccurateSystolicArray(8, 8, collapse_depth=1, configurable=False)
        a_tile, b_tile = random_int_matrices(4, 8, 8, seed=9)
        stats = array.simulate_tile(a_tile, b_tile).stats
        assert stats.gated_register_cycles == 0

    def test_sram_accounting(self):
        array = CycleAccurateSystolicArray(8, 8, collapse_depth=1)
        a_tile, b_tile = random_int_matrices(4, 6, 5, seed=9)
        stats = array.simulate_tile(a_tile, b_tile).stats
        assert stats.sram_reads == 6 * 5 + 4 * 6  # weights + activations
        assert stats.sram_writes == 4 * 5  # results

    def test_mismatched_operands_rejected(self):
        array = CycleAccurateSystolicArray(8, 8)
        with pytest.raises(ValueError):
            array.simulate_tile(np.ones((3, 4)), np.ones((5, 6)))

    def test_oversized_tile_rejected(self):
        array = CycleAccurateSystolicArray(4, 4)
        with pytest.raises(ValueError):
            array.simulate_tile(np.ones((3, 6)), np.ones((6, 4)))


def _simulate_tile(a_matrix, b_matrix):
    return CycleAccurateSystolicArray(4, 4).simulate_tile(a_matrix, b_matrix)


def _run_tiled_gemm(a_matrix, b_matrix):
    return run_tiled_gemm(a_matrix, b_matrix, rows=4, cols=4)


class TestOperandValues:
    """Operands are cast to int64 only when the cast is exact."""

    @pytest.mark.parametrize("run", [_simulate_tile, _run_tiled_gemm])
    @pytest.mark.parametrize("entry", [0.5, float("nan"), 1e30])
    def test_non_whole_entries_are_refused_not_truncated(self, run, entry):
        with pytest.raises(ValueError, match="whole numbers"):
            run(np.full((3, 4), entry), np.eye(4))

    @pytest.mark.parametrize("run", [_simulate_tile, _run_tiled_gemm])
    def test_whole_valued_floats_run(self, run):
        result = run(np.ones((3, 4)), np.ones((4, 4)))
        assert np.array_equal(result.output, np.full((3, 4), 4))
