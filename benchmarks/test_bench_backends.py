"""Benchmark: the three execution backends against each other.

Not a paper figure: this tracks the cost of the pluggable backend layer
and the speedup of the batched/cached fast path, on the two hot paths the
perf trajectory watches — whole-model scheduling (``resnet34``) and the
design-space exploration scenario of ``test_bench_design_space``.

Pinned conclusions:

* all three backends agree numerically on ResNet-34 (the batched backend
  bit-exactly, the cycle-accurate backend because the simulator is
  cycle-exact w.r.t. Eq. (3));
* the batched/cached backend runs the design-space scenario at least
  3x faster than the seed's per-layer analytical path;
* a *warm* rerun — a fresh backend whose decisions all come from the
  disk-persistent store, i.e. what a repeated CLI/CI invocation sees —
  runs the same scenario at least 5x faster than a cold analytical run,
  with bit-identical results.
"""

from bench_scenarios import DESIGN_POINTS, best_of as _best_of, speedup_floor

from repro.backends import (
    AnalyticalBackend,
    BatchedCachedBackend,
    CycleAccurateBackend,
    DecisionStore,
)
from repro.core.config import ArrayFlexConfig
from repro.core.design_space import DesignSpaceExplorer
from repro.nn.models import model_zoo, resnet34


# ---------------------------------------------------------------------- #
# Whole-model scheduling
# ---------------------------------------------------------------------- #
def test_backend_analytical_resnet34(benchmark):
    config = ArrayFlexConfig.paper_128x128()
    backend = AnalyticalBackend()
    model = resnet34()
    schedule = benchmark(backend.schedule_model, model, config)
    assert len(schedule.layers) == model.num_layers


def test_backend_batched_resnet34(benchmark):
    config = ArrayFlexConfig.paper_128x128()
    backend = BatchedCachedBackend()
    model = resnet34()
    schedule = benchmark(backend.schedule_model, model, config)
    assert schedule.layers == AnalyticalBackend().schedule_model(model, config).layers


def test_backend_cycle_accurate_resnet34(benchmark):
    """Measured scheduling on a 16x16 array (calibrated, warm steady state).

    The cycle backend steps three short probe tiles once per mode, and
    every schedule runs the vectorised mode search on those measured
    lines; only the first round calibrates.  The benchmark therefore
    reports that calibrated steady state, which is the regime any
    repeated-use deployment of this backend runs in.
    """
    config = ArrayFlexConfig(rows=16, cols=16)
    backend = CycleAccurateBackend()
    model = resnet34()
    schedule = benchmark(backend.schedule_model, model, config)
    reference = AnalyticalBackend().schedule_model(model, config)
    assert schedule.layers == reference.layers


# ---------------------------------------------------------------------- #
# Design-space sweep: the acceptance scenario
# ---------------------------------------------------------------------- #
def test_batched_backend_speeds_up_design_space_sweep(benchmark):
    """The batched/cached backend runs the design-space scenario >= 3x
    faster than the seed's per-layer analytical path."""
    models = list(model_zoo().values())
    analytical = DesignSpaceExplorer(models, backend="analytical")
    batched = DesignSpaceExplorer(models, backend="batched")

    reference = analytical.explore(DESIGN_POINTS)
    fast = batched.explore(DESIGN_POINTS)
    assert fast == reference  # numerically identical schedules and scores

    analytical_s = _best_of(lambda: analytical.explore(DESIGN_POINTS))
    batched_s = _best_of(lambda: batched.explore(DESIGN_POINTS))
    speedup = analytical_s / batched_s
    print(
        f"\nanalytical {analytical_s * 1e3:.1f} ms  "
        f"batched {batched_s * 1e3:.1f} ms  speedup {speedup:.1f}x"
    )
    floor = speedup_floor(3.0)
    assert speedup >= floor, f"expected >= {floor:.1f}x, measured {speedup:.2f}x"

    # Track the batched path in the perf trajectory.
    benchmark(batched.explore, DESIGN_POINTS)


def test_warm_cache_rerun_speeds_up_design_space_sweep(benchmark, tmp_path):
    """A disk-warm rerun of the sweep is >= 5x faster than cold analytical.

    "Rerun" means what CI sees: a brand-new process — so every round
    builds a fresh backend and a fresh store handle, and every decision
    comes off disk.
    """
    models = list(model_zoo().values())

    def cold_analytical():
        explorer = DesignSpaceExplorer(models, backend=AnalyticalBackend())
        return explorer.explore(DESIGN_POINTS)

    def warm_rerun():
        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        return DesignSpaceExplorer(models, backend=backend).explore(DESIGN_POINTS)

    reference = cold_analytical()
    # Seed the store once (the "first ever" run), then rerun warm.
    seed_backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
    DesignSpaceExplorer(models, backend=seed_backend).explore(DESIGN_POINTS)

    assert warm_rerun() == reference  # bit-identical decisions and scores
    probe = BatchedCachedBackend(store=DecisionStore(tmp_path))
    DesignSpaceExplorer(models, backend=probe).explore(DESIGN_POINTS)
    counters = probe.store.counters()  # nothing re-derived, so nothing put
    assert counters["merges"] == 0
    assert counters["pending_rows"] == 0

    analytical_s = _best_of(cold_analytical)
    warm_s = _best_of(warm_rerun)
    speedup = analytical_s / warm_s
    print(
        f"\ncold analytical {analytical_s * 1e3:.1f} ms  "
        f"warm rerun {warm_s * 1e3:.1f} ms  speedup {speedup:.1f}x"
    )
    floor = speedup_floor(5.0)
    assert speedup >= floor, f"expected >= {floor:.1f}x, measured {speedup:.2f}x"

    # Track the warm serving path in the perf trajectory.
    benchmark(warm_rerun)
