"""Synthetic GEMM generators.

Parameterised GEMM shapes and operands for the ablation benches, the
Eq. (7) validation experiment and the property-based tests, where
controlling (M, N, T) directly is more informative than a real network.
The paper's workload mixes are registry suites (``get_suite("cnn")``,
``get_suite("transformers")`` in :mod:`repro.workloads`).

This module is re-exported by :mod:`repro.workloads.synthetic`.  Because
it is imported while ``repro.nn`` is initialising, it must not import
``repro.workloads`` — the dependency points the other way.
"""

from __future__ import annotations

import numpy as np

from repro.nn.gemm_mapping import GemmShape


def synthetic_gemm_sweep(
    t_values: list[int],
    n_values: list[int],
    m_values: list[int],
    prefix: str = "sweep",
) -> list[GemmShape]:
    """Cartesian sweep of GEMM shapes (used by ablations and Eq. 7 studies)."""
    if not t_values or not n_values or not m_values:
        raise ValueError("all sweep dimensions must be non-empty")
    shapes: list[GemmShape] = []
    for t in t_values:
        for n in n_values:
            for m in m_values:
                shapes.append(GemmShape(m=m, n=n, t=t, name=f"{prefix}_t{t}_n{n}_m{m}"))
    return shapes


def random_gemm_shapes(
    count: int,
    seed: int = 0,
    max_m: int = 4096,
    max_n: int = 4096,
    max_t: int = 4096,
) -> list[GemmShape]:
    """Reproducible random GEMM shapes for stress and property tests."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    shapes = []
    for i in range(count):
        shapes.append(
            GemmShape(
                m=int(rng.integers(1, max_m + 1)),
                n=int(rng.integers(1, max_n + 1)),
                t=int(rng.integers(1, max_t + 1)),
                name=f"random_{i}",
            )
        )
    return shapes


def random_int_matrices(
    t_rows: int,
    n_dim: int,
    m_dim: int,
    seed: int = 0,
    low: int = -128,
    high: int = 127,
) -> tuple[np.ndarray, np.ndarray]:
    """Random integer (A, B) operand pair for functional simulation tests."""
    if min(t_rows, n_dim, m_dim) <= 0:
        raise ValueError("matrix dimensions must be positive")
    if low >= high:
        raise ValueError("low must be smaller than high")
    rng = np.random.default_rng(seed)
    a_matrix = rng.integers(low, high + 1, size=(t_rows, n_dim), dtype=np.int64)
    b_matrix = rng.integers(low, high + 1, size=(n_dim, m_dim), dtype=np.int64)
    return a_matrix, b_matrix
