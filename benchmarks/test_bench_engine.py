"""Benchmark: the batched tile engine against the scalar stepping loop.

Not a paper figure: this pins the payoff of
``CycleAccurateSystolicArray.simulate_tiles`` — the closed-form batched
path ``run_tiled_gemm`` runs on (the ``cycle`` backend's calibration
steps registers through ``simulate_tile`` instead) — against a
register-stepped ``simulate_tile`` loop over the same tiles
(``bench_scenarios.engine_tile_operands``: one small-array, many-tile
batch with mixed full/edge shapes).

Pinned conclusions:

* the batched call is bit-identical to the scalar loop — same outputs,
  same per-tile ``SimulationStats``, same collapse depth (the exhaustive
  property grid lives in ``tests/test_sim_batched.py``; this re-checks
  it on the timed batch so the speedup below is never measured against
  diverged results);
* the batched call is at least 3x faster than the scalar loop.
"""

import numpy as np

from bench_scenarios import (
    best_of as _best_of,
    engine_array,
    engine_tile_operands,
    run_batched_tiles,
    run_scalar_tiles,
    speedup_floor,
)


def test_batched_tiles_match_scalar_loop_and_speed_it_up(benchmark):
    """Bit-identical to the scalar loop; >=3x faster on the batch."""
    array = engine_array()
    a_tiles, b_tiles = engine_tile_operands()

    scalar = run_scalar_tiles(array, a_tiles, b_tiles)
    batched = run_batched_tiles(array, a_tiles, b_tiles)
    assert len(batched) == len(scalar)
    for got, want in zip(batched, scalar):
        assert np.array_equal(got.output, want.output)
        assert got.stats.as_dict() == want.stats.as_dict()
        assert got.collapse_depth == want.collapse_depth

    scalar_s = _best_of(lambda: run_scalar_tiles(array, a_tiles, b_tiles), rounds=3)
    batched_s = _best_of(lambda: run_batched_tiles(array, a_tiles, b_tiles), rounds=3)
    speedup = scalar_s / batched_s
    print(
        f"\nscalar {scalar_s * 1e3:.0f} ms  batched {batched_s * 1e3:.1f} ms  "
        f"speedup {speedup:.1f}x"
    )
    floor = speedup_floor(3.0)
    assert speedup >= floor, f"expected >= {floor:.1f}x, measured {speedup:.2f}x"

    # Track the batched engine in the perf trajectory.
    benchmark(lambda: run_batched_tiles(array, a_tiles, b_tiles))
