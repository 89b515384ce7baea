"""Benchmark: the activity-aware design-space sweep.

Not a paper figure: this pins down the cost of the activity-model layer
introduced by the LayerMetrics refactor.  The batched backend's NumPy
mode search now runs a vectorised per-layer activity/power pass instead
of one power lookup per depth; pricing the sweep under
``UtilizationActivity`` (per-layer tiling-utilization derating) must stay
within 10% of the constant-activity batched sweep — the utilization
computation is two integer ceil-divisions and one division per layer, so
anything above that indicates the vectorised path regressed.

Also pinned: the constant-activity default is *exactly* the pre-refactor
sweep (same `DesignPointResult`s), and the utilization-priced sweep
matches the analytical reference bit for bit — the vectorised
utilization path has no approximation license.
"""

import time

from bench_scenarios import design_space_sweep, overhead_ceiling

from repro.core.activity import ConstantActivity, UtilizationActivity


def test_utilization_activity_sweep_overhead(benchmark):
    """Utilization-priced sweeps cost <= 10% over constant-activity ones."""
    reference = design_space_sweep(backend="analytical", activity_model=UtilizationActivity())
    fast = design_space_sweep(activity_model=UtilizationActivity())
    assert fast == reference  # vectorised utilization path is bit-identical

    # Interleaved best-of-N: machine-load drift hits both scenarios
    # symmetrically instead of biasing whichever ran second.  One sweep
    # takes only a few milliseconds, so N is large enough for each
    # scenario's minimum to settle on a shared machine.
    constant_s = utilization_s = float("inf")
    for _ in range(15):
        start = time.perf_counter()
        design_space_sweep(activity_model=ConstantActivity())
        constant_s = min(constant_s, time.perf_counter() - start)
        start = time.perf_counter()
        design_space_sweep(activity_model=UtilizationActivity())
        utilization_s = min(utilization_s, time.perf_counter() - start)
    ratio = utilization_s / constant_s
    print(
        f"\nconstant {constant_s * 1e3:.1f} ms  "
        f"utilization {utilization_s * 1e3:.1f} ms  overhead {ratio:.2f}x"
    )
    ceiling = overhead_ceiling(1.10)
    assert ratio <= ceiling, f"expected <= {ceiling:.2f}x, measured {ratio:.2f}x"

    # Track the activity-aware sweep in the perf trajectory.
    benchmark(design_space_sweep, UtilizationActivity())


def test_constant_activity_sweep_matches_default(benchmark):
    """ConstantActivity(1.0) is the default — same results object for object."""
    default = design_space_sweep()
    constant = design_space_sweep(activity_model=ConstantActivity())
    assert constant == default
    benchmark(design_space_sweep, ConstantActivity())
