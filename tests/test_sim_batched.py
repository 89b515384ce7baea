"""Bit-identity of the batched tile engine against the scalar reference.

``CycleAccurateSystolicArray.simulate_tiles`` replays the value
datapath's closed-form trajectory (one integer matmul per batch) instead
of stepping registers cycle by cycle; functional GEMM execution
(``run_tiled_gemm``) routes through it, while the
cycle backend calibrates on the scalar ``simulate_tile``.  These property
tests pin the contract both paths rely on: for random ``(T, n, m, k, R, C)``
batches the batched path is **bit-identical** to a scalar
``simulate_tile`` loop — the output tiles, every
:class:`~repro.sim.stats.SimulationStats` field and the collapse depth —
including int64 wraparound, edge tiles, broadcast weight tiles and
stacked 3-D operands.  Operands are drawn both from the int8 range, where
the stepper's registers run in int32, and from ±2^31, where they run in
int64 and sums wrap.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.systolic_sim import CycleAccurateSystolicArray, stepping_dtype


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
        assert got.stats.extra == want.stats.extra
        assert got.collapse_depth == want.collapse_depth


class TestBatchedScalarIdentity:
    @settings(max_examples=60, deadline=None)
    @given(tile_batches())
    def test_batched_matches_scalar_everywhere(self, batch):
        rows, cols, k, t_rows, shapes, seed, magnitude = batch
        array = CycleAccurateSystolicArray(rows=rows, cols=cols, collapse_depth=k)
        a_tiles, b_tiles = _operands(t_rows, shapes, seed, magnitude)
        batched = array.simulate_tiles(a_tiles, b_tiles)
        scalar = [array.simulate_tile(a, b) for a, b in zip(a_tiles, b_tiles)]
        _assert_identical(batched, scalar)
        # And the captured product is the padded integer matmul itself.
        for result, a_tile, b_tile in zip(batched, a_tiles, b_tiles):
            assert np.array_equal(result.output, a_tile @ b_tile)
        # Whichever width the stepper ran in, its output is int64.
        expected_width = np.int32 if magnitude == 2**7 else np.int64
        for result, a_tile, b_tile in zip(scalar, a_tiles, b_tiles):
            assert stepping_dtype(a_tile, b_tile) is expected_width
            assert result.output.dtype == np.int64

    @settings(max_examples=20, deadline=None)
    @given(tile_batches())
    def test_chunked_batches_equal_one_call(self, batch):
        """Splitting a batch into chunks never changes any result."""
        rows, cols, k, t_rows, shapes, seed, magnitude = batch
        array = CycleAccurateSystolicArray(rows=rows, cols=cols, collapse_depth=k)
        a_tiles, b_tiles = _operands(t_rows, shapes, seed, magnitude)
        whole = array.simulate_tiles(a_tiles, b_tiles)
        chunked = []
        for start in range(0, len(a_tiles), 2):
            chunked.extend(
                array.simulate_tiles(
                    a_tiles[start : start + 2], b_tiles[start : start + 2]
                )
            )
        _assert_identical(chunked, whole)

    def test_non_configurable_array_matches_scalar(self):
        array = CycleAccurateSystolicArray(rows=8, cols=8, configurable=False)
        a_tiles, b_tiles = _operands(9, [(8, 8), (3, 5)], seed=7)
        batched = array.simulate_tiles(a_tiles, b_tiles)
        scalar = [array.simulate_tile(a, b) for a, b in zip(a_tiles, b_tiles)]
        _assert_identical(batched, scalar)


class TestBatchedInputForms:
    def test_single_weight_tile_broadcasts_across_batch(self):
        """One 2-D B tile is shared by every A tile of the batch."""
        array = CycleAccurateSystolicArray(rows=8, cols=8, collapse_depth=2)
        a_tiles, b_tiles = _operands(6, [(8, 5), (8, 5), (8, 5)], seed=3)
        shared = b_tiles[0]
        broadcast = array.simulate_tiles(a_tiles, shared)
        explicit = array.simulate_tiles(a_tiles, [shared] * len(a_tiles))
        _assert_identical(broadcast, explicit)

    def test_stacked_3d_operands_accepted(self):
        array = CycleAccurateSystolicArray(rows=8, cols=8)
        a_tiles, b_tiles = _operands(5, [(6, 4), (6, 4)], seed=11)
        stacked = array.simulate_tiles(np.stack(a_tiles), np.stack(b_tiles))
        listed = array.simulate_tiles(a_tiles, b_tiles)
        _assert_identical(stacked, listed)

    def test_empty_batch_returns_empty_list(self):
        array = CycleAccurateSystolicArray(rows=8, cols=8)
        assert array.simulate_tiles([], []) == []

    def test_max_batch_tiles_is_always_positive(self):
        array = CycleAccurateSystolicArray(rows=128, cols=128)
        assert array.max_batch_tiles(1) >= 1
        assert array.max_batch_tiles(100_000) >= 1


class TestBatchedValidation:
    @pytest.fixture()
    def array(self):
        return CycleAccurateSystolicArray(rows=8, cols=8)

    def test_mixed_stream_depths_rejected(self, array):
        a_tiles, b_tiles = _operands(5, [(4, 4)], seed=0)
        a2, b2 = _operands(6, [(4, 4)], seed=0)
        with pytest.raises(ValueError, match="same depth"):
            array.simulate_tiles(a_tiles + a2, b_tiles + b2)

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
