"""Benchmark harness for the Eq. (7) validation experiment.

Section III-C derives a closed-form optimal collapse depth,

    k_hat = sqrt( (R + C) / (R + T - 2) * (d_FF + d_mul + d_add) / (d_CSA + 2 d_mux) ),

and the paper notes that it approximates the per-layer discrete optimum
"fairly accurately".  This benchmark quantifies the agreement over every
layer of the three CNNs plus a synthetic T sweep, at both array sizes.
"""

import pytest

from repro.eval.experiments import eq7_validation, render_eq7
from repro.nn.workloads import synthetic_gemm_sweep


@pytest.mark.parametrize("size", [128, 256], ids=["128x128", "256x256"])
def test_eq7_analytical_vs_discrete(benchmark, size):
    extra = synthetic_gemm_sweep(
        t_values=[16, 49, 196, 784, 3136],
        n_values=[512, 2304],
        m_values=[256, 1024],
    )
    result = benchmark(eq7_validation, rows=size, cols=size, extra_gemms=extra)

    print()
    print(render_eq7(result))

    # "Fairly accurately": at least 80% of the layers agree exactly.
    assert result.agreement_rate >= 0.80

    # Directional sanity: whenever the analytical optimum clearly exceeds 3,
    # the discrete choice is the deepest mode, and whenever it is below ~1.2
    # the discrete choice is the normal pipeline.
    for entry in result.entries:
        if entry.analytical_depth > 3.0:
            assert entry.discrete_best == 4, entry.gemm.name
        if entry.analytical_depth < 1.2:
            assert entry.discrete_best == 1, entry.gemm.name


def test_eq7_monotone_in_t():
    """k_hat decreases as the streamed dimension T grows (paper's intuition)."""
    from repro.core.config import ArrayFlexConfig
    from repro.core.optimizer import PipelineOptimizer
    from repro.nn.gemm_mapping import GemmShape

    optimizer = PipelineOptimizer(ArrayFlexConfig(rows=128, cols=128))
    k_hats = [
        optimizer.analytical_optimal_depth(GemmShape(m=256, n=2304, t=t))
        for t in (16, 64, 256, 1024, 4096)
    ]
    assert all(a > b for a, b in zip(k_hats, k_hats[1:]))
