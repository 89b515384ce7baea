"""Benchmarks of the simulator substrate itself.

Not a paper figure.  Two scenarios:

* ``test_cycle_sim_tiled_gemm`` times ``run_tiled_gemm``, which steps
  every tile's registers on ``simulate_tile``, and re-asserts that its
  measured cycle counts equal the closed-form Eqs. (1)/(3)/(4) and that
  the product is bit-exact;
* ``test_cycle_calibration_cold_128x128`` times the ``cycle`` backend's
  calibration: a fresh backend's first ResNet-34 schedule at 128x128,
  which steps nine probe tiles through ``simulate_tile``, and asserts
  that the measured lines are Eq. (3) and the schedule equals the
  analytical backend's.  No wall-clock bound: the timing is recorded,
  not gated.
"""

import numpy as np
import pytest

from bench_scenarios import cycle_calibration_cold, eq3_lines

from repro.backends import AnalyticalBackend
from repro.core.config import ArrayFlexConfig
from repro.core.latency import LatencyModel
from repro.nn.gemm_mapping import GemmShape
from repro.nn.workloads import random_int_matrices
from repro.sim.tiling import run_tiled_gemm


@pytest.mark.parametrize("collapse_depth", [1, 2, 4], ids=["k1", "k2", "k4"])
def test_cycle_sim_tiled_gemm(benchmark, collapse_depth):
    rows = cols = 32
    t_rows, n_dim, m_dim = 48, 80, 72
    a_matrix, b_matrix = random_int_matrices(t_rows, n_dim, m_dim, seed=11)
    reference = a_matrix @ b_matrix

    result = benchmark(
        run_tiled_gemm,
        a_matrix,
        b_matrix,
        rows,
        cols,
        collapse_depth,
    )

    # Bit-exact output.
    assert np.array_equal(result.output, reference)

    # Measured cycles equal the closed-form model (Eq. 4).
    latency = LatencyModel(ArrayFlexConfig(rows=rows, cols=cols, supported_depths=(1, 2, 4)))
    gemm = GemmShape(m=m_dim, n=n_dim, t=t_rows)
    assert result.total_cycles == latency.total_cycles(gemm, collapse_depth)

    # Shallow modes gate the expected fraction of pipeline registers.
    expected_gated = (collapse_depth - 1) / collapse_depth
    assert result.stats.gated_register_fraction == pytest.approx(expected_gated, abs=1e-9)


def test_cycle_calibration_cold_128x128(benchmark):
    backend, config, schedule = benchmark.pedantic(
        cycle_calibration_cold, rounds=3, iterations=1
    )
    assert backend._calibration == eq3_lines(config)
    assert schedule == AnalyticalBackend().schedule_model("resnet34", config)
