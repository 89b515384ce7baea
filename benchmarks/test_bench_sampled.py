"""Benchmark: the sampled-simulation backend against the exact cycle backend.

Not a paper figure: this pins the accuracy of
:class:`~repro.backends.SampledSimBackend` on the CNN suite under batched
inference (``bench_scenarios.schedule_cnn_suite``, the big-T regime the
backend was built for) and records its cost against the cycle backend.

Pinned conclusions:

* every per-layer cycle estimate is within its self-reported
  ``error_bound`` of the exact cycle result, and within 10% absolutely;
* the whole-suite totals agree with the exact backend within the worst
  per-layer bound.

No speedup is pinned: the cycle backend calibrates each (geometry, mode)
pair once on three short register-stepped probes, so it no longer pays
for T and a cold run is about as cheap as a cold sampled one.  The ratio
is printed for the record.
"""

from bench_scenarios import best_of as _best_of, schedule_cnn_suite

from repro.backends import CycleAccurateBackend, SampledSimBackend


def test_sampled_backend_speeds_up_cnn_suite_within_error_bounds(benchmark):
    """Every layer inside its error bound; the cold-run ratio is printed."""
    exact_schedules = schedule_cnn_suite(CycleAccurateBackend())
    sampled_schedules = schedule_cnn_suite(SampledSimBackend())

    checked = 0
    for sampled, exact in zip(sampled_schedules, exact_schedules):
        assert sampled.model_name == exact.model_name
        for sampled_layer, exact_layer in zip(sampled.layers, exact.layers):
            bound = sampled_layer.error_bound
            assert bound is not None and bound >= 0.0
            error = abs(sampled_layer.cycles - exact_layer.cycles)
            assert error <= bound * exact_layer.cycles + 1e-9, (
                f"{sampled.model_name} layer {sampled_layer.index}: "
                f"estimate {sampled_layer.cycles} vs exact "
                f"{exact_layer.cycles}, bound {bound}"
            )
            assert error <= 0.10 * exact_layer.cycles  # 10% absolute cap
            checked += 1
        assert abs(sampled.total_cycles - exact.total_cycles) <= (
            sampled.max_error_bound() * exact.total_cycles + 1e-9
        )
    assert checked > 100  # the whole suite, not a truncated run

    # Cold-vs-cold timing: fresh backends each round, so the cycle
    # backend's calibration table and the sampled backend's measurement
    # memo both start empty — the fresh-process regime.
    cycle_s = _best_of(lambda: schedule_cnn_suite(CycleAccurateBackend()), rounds=2)
    sampled_s = _best_of(lambda: schedule_cnn_suite(SampledSimBackend()), rounds=2)
    print(
        f"\ncycle {cycle_s * 1e3:.0f} ms  sampled {sampled_s * 1e3:.0f} ms  "
        f"ratio {cycle_s / sampled_s:.2f}x"
    )

    # Track the sampled path in the perf trajectory.
    benchmark(lambda: schedule_cnn_suite(SampledSimBackend()))
