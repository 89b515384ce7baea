"""Tests of the declarative ablation/importance harness.

Covers the three pillars the harness promises:

* run-set generation is a pure, validated function of the declaration
  (baseline plus one-off, optional pairwise grid, stable run ids);
* execution fans out through :class:`~repro.serve.SchedulingService`
  with results identical to direct backend calls, under any submission
  order (determinism), and ``-W error::DeprecationWarning`` clean;
* importance math: per-component deltas relative to the baseline.
"""

import json
import warnings

import pytest

from repro.backends import ModelTotals
from repro.core.config import ArrayFlexConfig
from repro.eval.ablation import (
    METRICS,
    AblationStudy,
    Component,
    RunResult,
    RunSpec,
    WorkloadRun,
    _delta,
    default_study,
    format_value,
)


def tiny_study(**overrides) -> AblationStudy:
    """A fast two-component study over one small workload."""
    kwargs = dict(
        components=[
            Component("activity_model", "constant", ("utilization",)),
            Component("geometry", (16, 16), ((32, 32),)),
        ],
        fixed={"workloads": ("mobilenet_v1",), "depths": (1, 2, 4)},
    )
    kwargs.update(overrides)
    return AblationStudy(**kwargs)


class TestDeclaration:
    def test_run_set_is_baseline_plus_one_off(self):
        study = tiny_study()
        ids = [spec.run_id for spec in study.generate_runs()]
        assert ids == [
            "baseline",
            "activity_model=utilization",
            "geometry=32x32",
        ]

    def test_pairwise_adds_the_cross_grid(self):
        study = tiny_study(pairwise=True)
        ids = [spec.run_id for spec in study.generate_runs()]
        assert ids == [
            "baseline",
            "activity_model=utilization",
            "geometry=32x32",
            "activity_model=utilization|geometry=32x32",
        ]

    def test_one_run_per_alternative(self):
        study = AblationStudy(
            components=[Component("depths", (1, 2, 4), ((1, 2), (1, 4)))],
        )
        ids = [spec.run_id for spec in study.generate_runs()]
        assert ids == ["baseline", "depths=1+2", "depths=1+4"]

    def test_settings_for_overrides_only_the_flipped_knob(self):
        study = tiny_study()
        specs = study.generate_runs()
        baseline = study.settings_for(specs[0])
        flipped = study.settings_for(specs[2])
        assert baseline["geometry"] == (16, 16)
        assert flipped["geometry"] == (32, 32)
        assert flipped["activity_model"] == baseline["activity_model"]

    def test_string_spellings_normalised(self):
        component = Component("geometry", "16x16", ("32x32",))
        assert component.baseline == (16, 16)
        assert component.alternatives == ((32, 32),)
        depths = Component("depths", "1+2+4", ("1+2",))
        assert depths.baseline == (1, 2, 4)
        assert format_value("depths", depths.alternatives[0]) == "1+2"

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation knob"):
            Component("voltage", 1.0, (0.9,))

    def test_component_needs_alternatives(self):
        with pytest.raises(ValueError, match="at least one alternative"):
            Component("batch", 1, ())

    def test_baseline_cannot_be_an_alternative(self):
        with pytest.raises(ValueError, match="baseline as an alternative"):
            Component("batch", 1, (2, 1))

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate component names"):
            AblationStudy(
                components=[
                    Component("batch", 1, (2,)),
                    Component("batch", 1, (4,)),
                ]
            )

    def test_fixed_and_ablated_knob_collision_rejected(self):
        with pytest.raises(ValueError, match="both fixed and ablated"):
            AblationStudy(
                components=[Component("batch", 1, (2,))],
                fixed={"batch": 8},
            )

    @pytest.mark.parametrize("fixed, ablated", [("workloads", "suite"), ("suite", "workloads")])
    def test_workload_selection_fixed_and_ablated_rejected(self, fixed, ablated):
        """A workload list replaces the suite, so fixing one of them while
        ablating the other would leave a component with no effect."""
        values = {"workloads": ("mobilenet_v1", ("resnet34",)), "suite": ("cnn", ("transformers",))}
        with pytest.raises(ValueError, match="select the same workloads"):
            AblationStudy(
                components=[Component(ablated, *values[ablated])],
                fixed={fixed: values[fixed][0]},
            )

    def test_unknown_metric_and_executor_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            tiny_study(metric="throughput")


class TestExecution:
    @pytest.fixture(scope="class")
    def outcome(self):
        return tiny_study().run()

    def test_metrics_match_direct_backend_totals(self, outcome):
        from repro.backends import create_backend

        backend = create_backend("batched")
        for geometry, run_id in (((16, 16), "baseline"), ((32, 32), "geometry=32x32")):
            config = ArrayFlexConfig(
                rows=geometry[0], cols=geometry[1], activity_model="constant"
            )
            direct = backend.schedule_model_totals("mobilenet_v1", config)
            run = outcome.run(run_id)
            assert run.time_ns == direct.time_ns
            assert run.energy_nj == direct.energy_nj
            assert run.metric("edp") == direct.energy_nj * direct.time_ns

    def test_ranking_is_sorted_and_ranked(self, outcome):
        scores = [entry.score for entry in outcome.ranking]
        assert scores == sorted(scores, reverse=True)
        assert [entry.rank for entry in outcome.ranking] == [1, 2]

    def test_flipped_knob_moves_the_metric(self, outcome):
        entry = next(e for e in outcome.ranking if e.component == "geometry")
        assert entry.score > 0.0
        assert entry.driver.run_id == "geometry=32x32"

    def test_render_mentions_every_run_and_component(self, outcome):
        text = outcome.render()
        assert "Component importance" in text
        assert "activity_model=utilization" in text
        assert "geometry=32x32" in text

    def test_to_json_is_serialisable_and_complete(self, outcome):
        payload = json.loads(json.dumps(outcome.to_json(), sort_keys=True))
        assert payload["metric"] == "edp"
        assert payload["baseline"]["run_id"] == "baseline"
        assert {run["run_id"] for run in payload["runs"]} == {
            "activity_model=utilization",
            "geometry=32x32",
        }
        assert {entry["component"] for entry in payload["ranking"]} == {
            "activity_model",
            "geometry",
        }

    def test_pairwise_interaction_reported(self):
        outcome = tiny_study(pairwise=True).run()
        pair = outcome.pairwise[0]
        assert pair.run_id == "activity_model=utilization|geometry=32x32"
        # interaction = combined delta - sum of one-off deltas
        combined = outcome.deltas[pair.run_id].deltas["edp"]
        parts = (
            outcome.deltas["activity_model=utilization"].deltas["edp"]
            + outcome.deltas["geometry=32x32"].deltas["edp"]
        )
        assert outcome.interaction(pair) == pytest.approx(combined - parts)
        assert "interaction" in outcome.render()

    def test_no_deprecated_alias_fires(self):
        """The fan-out must only speak the typed submit_many surface."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tiny_study().run()


class TestDeterminism:
    def test_same_study_twice_is_identical(self):
        first = tiny_study().run().to_json()
        second = tiny_study().run().to_json()
        assert first == second

    def test_submission_order_does_not_change_the_report(self):
        study = tiny_study(pairwise=True)
        canonical = study.run().to_json()
        ids = [spec.run_id for spec in study.generate_runs()]
        shuffled = study.run(order=list(reversed(ids))).to_json()
        assert canonical == shuffled

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            tiny_study().run(order=["baseline"])


class TestImportanceMath:
    def totals_run(self, run_id, time_ns, energy_nj, overrides=()):
        return RunResult(
            spec=RunSpec(run_id=run_id, overrides=tuple(overrides)),
            settings={},
            workloads=[
                WorkloadRun(
                    name="w",
                    result=ModelTotals(time_ns=time_ns, energy_nj=energy_nj),
                )
            ],
        )

    def test_deltas_are_relative_to_the_baseline(self):
        baseline = self.totals_run("baseline", 100.0, 50.0)
        run = self.totals_run("batch=2", 150.0, 40.0, overrides=[("batch", 2)])
        delta = _delta(baseline, run)
        assert delta.deltas["latency"] == pytest.approx(0.5)
        assert delta.deltas["energy"] == pytest.approx(-0.2)
        # EDP: (40*150)/(50*100) - 1 = 0.2
        assert delta.deltas["edp"] == pytest.approx(0.2)

    def test_identical_runs_have_zero_deltas(self):
        baseline = self.totals_run("baseline", 100.0, 50.0)
        same = self.totals_run("batch=2", 100.0, 50.0, overrides=[("batch", 2)])
        delta = _delta(baseline, same)
        assert all(delta.deltas[m] == 0.0 for m in METRICS)


class TestActivityRefactor:
    def test_engine_backed_run_matches_the_inline_loop_bit_for_bit(self):
        """The comparison grid's activity rows must reproduce the
        hand-written activity loop exactly — same schedules, same
        division order, bit-identical numbers."""
        from repro.core.activity import UtilizationActivity
        from repro.eval.experiments import comparison_grid
        from repro.nn.models import mobilenet_v1
        from repro.backends import create_backend

        sizes = (16, 32)
        workloads = [mobilenet_v1()]
        grid = comparison_grid(
            workloads, sizes=sizes, activity_models=("constant", "utilization")
        )
        constant_rows = [row for row in grid if row.activity_model == "constant"]
        derated_rows = [row for row in grid if row.activity_model == "utilization"]
        grid_entries = [
            (
                constant.model_name,
                constant.arrayflex.rows,
                constant.arrayflex.cols,
                derated.arrayflex.average_utilization(),
                constant.arrayflex.total_energy_nj,
                derated.arrayflex.total_energy_nj,
                constant.edp_gain,
                derated.edp_gain,
            )
            for constant, derated in zip(constant_rows, derated_rows)
        ]

        backend = create_backend(None, default="batched")
        entries = []
        for size in sizes:
            constant_config = ArrayFlexConfig(rows=size, cols=size)
            utilization_config = constant_config.with_activity_model(
                UtilizationActivity()
            )
            for workload in workloads:
                constant = backend.schedule_model(workload, constant_config)
                derated = backend.schedule_model(workload, utilization_config)
                constant_conv = backend.schedule_model_conventional(
                    workload, constant_config
                )
                derated_conv = backend.schedule_model_conventional(
                    workload, utilization_config
                )
                entries.append(
                    (
                        constant.model_name,
                        size,
                        size,
                        derated.average_utilization(),
                        constant.total_energy_nj,
                        derated.total_energy_nj,
                        (
                            constant_conv.energy_delay_product
                            / constant.energy_delay_product
                        ),
                        (
                            derated_conv.energy_delay_product
                            / derated.energy_delay_product
                        ),
                    )
                )
        assert grid_entries == entries  # == on floats: bit-identical


class TestDefaultStudy:
    def test_default_study_shape(self):
        study = default_study()
        assert [component.name for component in study.components] == [
            "activity_model",
            "geometry",
            "depths",
        ]
        assert len(study.generate_runs()) == 4

    def test_ablation_experiment_runs_and_renders(self):
        """``experiment ablation`` prints a study's run-and-render."""
        study = AblationStudy(
            components=[Component("activity_model", "constant", ("utilization",))],
            fixed={"workloads": ("mobilenet_v1",), "geometry": (16, 16)},
        )
        assert "Component importance" in study.run().render()
