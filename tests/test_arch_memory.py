"""Tests for the south-edge output accumulators."""

import numpy as np
import pytest

from repro.arch.memory import AccumulatorBank


class TestAccumulatorBank:
    def test_block_accumulation_across_tiles(self):
        """Partial sums of tiles along the N dimension add up (Fig. 1c)."""
        acc = AccumulatorBank(cols=4, t_rows=2)
        acc.accumulate_block(np.ones((2, 4), dtype=np.int64))
        acc.accumulate_block(2 * np.ones((2, 4), dtype=np.int64))
        assert np.all(acc.read_result() == 3)

    def test_block_with_column_offset(self):
        acc = AccumulatorBank(cols=6, t_rows=2)
        acc.accumulate_block(np.ones((2, 2), dtype=np.int64), col_offset=4)
        result = acc.read_result()
        assert np.all(result[:, 4:] == 1)
        assert np.all(result[:, :4] == 0)

    def test_block_shape_mismatch(self):
        acc = AccumulatorBank(cols=4, t_rows=2)
        with pytest.raises(ValueError):
            acc.accumulate_block(np.ones((3, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            acc.accumulate_block(np.ones((2, 3), dtype=np.int64), col_offset=2)

    def test_read_result_returns_copy(self):
        acc = AccumulatorBank(cols=2, t_rows=2)
        result = acc.read_result()
        result[0, 0] = 99
        assert acc.read_result()[0, 0] == 0
