"""Ablation benchmarks for the design choices DESIGN.md calls out.

Three ablations:

* ``abl_csa`` -- Section III-B inserts a 3:2 carry-save adder per PE so a
  collapsed column accumulates in carry-save form; without it, every
  collapsed stage would contribute a full carry-propagate-adder delay.
  The benchmark quantifies how the clock and the end-to-end savings
  degrade without the CSAs.
* ``abl_dirs`` -- the paper collapses both the vertical (reduction) and the
  horizontal (broadcast) pipelines; the benchmark isolates each direction's
  contribution to the cycle reduction.
* ``ablation_sweep`` -- the declarative importance harness: the default
  three-component study (activity model, geometry, collapse-depth menu)
  fanned out through one ``SchedulingService.submit_many`` batch.  The
  qualitative assertions pin the facts the harness exists to surface:
  every run schedules and the ranking covers every component, ordered by
  importance.
"""

from bench_scenarios import ablation_study

from repro.eval.experiments import (
    csa_ablation,
    direction_ablation,
    render_abl_csa,
    render_abl_dirs,
)


def test_csa_ablation(benchmark):
    result = benchmark(csa_ablation)

    print()
    print(render_abl_csa(result))

    by_depth = {entry.collapse_depth: entry for entry in result.entries}

    # Without CSAs the clock degrades strictly faster with k.
    assert (
        by_depth[4].period_without_csa_ps - by_depth[1].period_without_csa_ps
        > by_depth[4].period_with_csa_ps - by_depth[1].period_with_csa_ps
    )

    # With CSAs, fixed shallow modes still save time on this model; without
    # them the savings collapse (and turn negative for the deep mode).
    assert by_depth[2].model_saving_with_csa > by_depth[2].model_saving_without_csa
    assert by_depth[4].model_saving_with_csa > 0.0
    assert by_depth[4].model_saving_without_csa < 0.0


def test_direction_ablation(benchmark):
    result = benchmark(direction_ablation)

    print()
    print(render_abl_dirs(result))

    for entry in result.entries:
        # Each single direction already helps...
        assert entry.cycles_vertical_only < entry.cycles_conventional
        assert entry.cycles_horizontal_only < entry.cycles_conventional
        # ...but collapsing both directions is strictly better than either.
        assert entry.cycles_both < entry.cycles_vertical_only
        assert entry.cycles_both < entry.cycles_horizontal_only
        # For a square array both single-direction variants save the same
        # number of cycles (symmetric R/k and C/k terms).
        assert entry.cycles_vertical_only == entry.cycles_horizontal_only


def test_ablation_sweep(benchmark):
    study = ablation_study()
    result = benchmark(study.run)

    print()
    print(result.render())

    assert all(run.ok for run in result.runs)
    assert {entry.component for entry in result.ranking} == {
        component.name for component in study.components
    }
    assert [entry.rank for entry in result.ranking] == [1, 2, 3]
    scores = [entry.score for entry in result.ranking]
    assert scores == sorted(scores, reverse=True)
