"""``CycleAccurateSystolicArray.simulate_tiles``: a loop of ``simulate_tile``.

It takes two equal-length sequences of 2-D tiles (a stacked 3-D array is
the sequence of its tiles) and returns one stepped result per pair, in
order; a malformed tile is refused by ``simulate_tile`` itself.
"""

import numpy as np
import pytest

from repro.sim.systolic_sim import CycleAccurateSystolicArray


def _operands(t_rows, shapes, seed, magnitude=2**31):
    """Random int64 operand tiles in [-magnitude, magnitude).

    2^7 is the int8 range (the stepper runs in int32); the default 2^31
    is big enough to wrap int64 sums (the stepper runs in int64).
    """
    rng = np.random.default_rng(seed)
    a_tiles, b_tiles = [], []
    for rows_used, cols_used in shapes:
        a_tiles.append(
            rng.integers(-magnitude, magnitude, size=(t_rows, rows_used), dtype=np.int64)
        )
        b_tiles.append(
            rng.integers(-magnitude, magnitude, size=(rows_used, cols_used), dtype=np.int64)
        )
    return a_tiles, b_tiles


def _assert_identical(batched, scalar):
    assert len(batched) == len(scalar)
    for got, want in zip(batched, scalar):
        assert got.output.dtype == want.output.dtype
        assert got.output.shape == want.output.shape
        assert np.array_equal(got.output, want.output)
        assert got.stats.as_dict() == want.stats.as_dict()
        assert got.collapse_depth == want.collapse_depth


class TestBatchedInputForms:
    def test_stacked_3d_operands_accepted(self):
        array = CycleAccurateSystolicArray(rows=8, cols=8)
        a_tiles, b_tiles = _operands(5, [(6, 4), (6, 4)], seed=11)
        stacked = array.simulate_tiles(np.stack(a_tiles), np.stack(b_tiles))
        listed = array.simulate_tiles(a_tiles, b_tiles)
        _assert_identical(stacked, listed)

    def test_empty_batch_returns_empty_list(self):
        array = CycleAccurateSystolicArray(rows=8, cols=8)
        assert array.simulate_tiles([], []) == []


class TestBatchedValidation:
    @pytest.fixture()
    def array(self):
        return CycleAccurateSystolicArray(rows=8, cols=8)

    def test_inner_dimension_mismatch_rejected(self, array):
        a_tiles, _ = _operands(5, [(4, 4)], seed=0)
        _, b_tiles = _operands(5, [(3, 4)], seed=0)
        with pytest.raises(ValueError, match="inner dimensions"):
            array.simulate_tiles(a_tiles, b_tiles)

    def test_oversize_tile_rejected(self, array):
        rng = np.random.default_rng(0)
        a_tile = rng.integers(-4, 4, size=(5, 9), dtype=np.int64)
        b_tile = rng.integers(-4, 4, size=(9, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="does not fit"):
            array.simulate_tiles([a_tile], [b_tile])

    def test_tile_count_mismatch_rejected(self, array):
        a_tiles, b_tiles = _operands(5, [(4, 4), (4, 4)], seed=0)
        with pytest.raises(ValueError, match="A tiles but"):
            array.simulate_tiles(a_tiles, b_tiles[:1])

    def test_non_2d_tiles_rejected(self, array):
        a_tiles, b_tiles = _operands(5, [(4, 4)], seed=0)
        with pytest.raises(ValueError, match="two-dimensional"):
            array.simulate_tiles([a_tiles[0][:, 0]], b_tiles)
