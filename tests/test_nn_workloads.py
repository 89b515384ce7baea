"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.nn.workloads import (
    random_gemm_shapes,
    random_int_matrices,
    synthetic_gemm_sweep,
)


class TestSyntheticSweep:
    def test_cartesian_product_size(self):
        shapes = synthetic_gemm_sweep([1, 2], [3], [4, 5, 6])
        assert len(shapes) == 6

    def test_names_are_unique(self):
        shapes = synthetic_gemm_sweep([1, 2], [3, 4], [5])
        assert len({s.name for s in shapes}) == len(shapes)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            synthetic_gemm_sweep([], [1], [1])


class TestRandomGenerators:
    def test_random_shapes_reproducible(self):
        assert [s.as_tuple() for s in random_gemm_shapes(5, seed=3)] == [
            s.as_tuple() for s in random_gemm_shapes(5, seed=3)
        ]

    def test_random_shapes_respect_bounds(self):
        for shape in random_gemm_shapes(50, seed=1, max_m=16, max_n=8, max_t=4):
            assert 1 <= shape.m <= 16
            assert 1 <= shape.n <= 8
            assert 1 <= shape.t <= 4

    def test_random_shapes_invalid_count(self):
        with pytest.raises(ValueError):
            random_gemm_shapes(0)

    def test_random_matrices_shapes_and_range(self):
        a, b = random_int_matrices(3, 4, 5, seed=0, low=-2, high=2)
        assert a.shape == (3, 4) and b.shape == (4, 5)
        assert a.min() >= -2 and a.max() <= 2

    def test_random_matrices_reproducible(self):
        a1, b1 = random_int_matrices(3, 4, 5, seed=9)
        a2, b2 = random_int_matrices(3, 4, 5, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_random_matrices_invalid_args(self):
        with pytest.raises(ValueError):
            random_int_matrices(0, 1, 1)
        with pytest.raises(ValueError):
            random_int_matrices(1, 1, 1, low=5, high=5)
