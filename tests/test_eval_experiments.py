"""Tests for the experiment harness and the comparison grid."""

import pytest

from repro.cli import _SCHEDULING_EXPERIMENTS, EXPERIMENT_FACTORIES
from repro.eval.experiments import (
    comparison_grid,
    csa_ablation,
    direction_ablation,
    eq7_validation,
    fig5_depth_sweep,
    fig6_area,
    operating_points,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_fig9,
    render_transformers,
    value_range,
)
from repro.nn.models import convnext_tiny, model_zoo
from repro.workloads import get_suite


class TestFig5:
    def test_only_paper_layers_accepted(self):
        with pytest.raises(ValueError):
            fig5_depth_sweep(5)

    def test_layer20_minimum_at_k2(self):
        result = fig5_depth_sweep(20)
        assert result.best_depth == 2

    def test_layer28_minimum_at_k4(self):
        result = fig5_depth_sweep(28)
        assert result.best_depth == 4

    def test_render_mentions_conventional_reference(self):
        text = render_fig5(fig5_depth_sweep(20))
        assert "conventional" in text
        assert "132x132" in text


class TestFig6:
    def test_overhead_close_to_paper(self):
        result = fig6_area()
        assert result.pe_overhead == pytest.approx(0.16, abs=0.02)

    def test_render_contains_both_designs(self):
        text = render_fig6(fig6_area())
        assert "conventional PE" in text and "ArrayFlex PE" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        (row,) = comparison_grid([convnext_tiny()], sizes=(128,))
        return row

    def test_total_saving_band(self, result):
        assert 0.06 < result.latency_saving < 0.16

    def test_layer_count_preserved(self, result):
        assert len(result.arrayflex.layers) == len(result.conventional.layers) == 59

    def test_early_layers_normal_late_layers_deep(self, result):
        assert result.arrayflex.layers[0].collapse_depth == 1
        assert result.arrayflex.layers[-2].collapse_depth == 4

    def test_render_footer_totals(self, result):
        text = render_fig7(result)
        assert "total:" in text


class TestFig8AndFig9:
    @pytest.fixture(scope="class")
    def fig8(self):
        return comparison_grid(list(model_zoo().values()), sizes=(128,))

    @pytest.fixture(scope="class")
    def fig9(self):
        return comparison_grid(list(model_zoo().values()), sizes=(128,))

    def test_fig8_entry_per_model(self, fig8):
        assert len(fig8) == 3

    def test_fig8_savings_positive(self, fig8):
        low, high = value_range(fig8, "latency_saving")
        assert low > 0.0 and high < 0.25

    def test_fig9_power_savings_positive(self, fig9):
        low, high = value_range(fig9, "power_saving")
        assert low > 0.0 and high < 0.30

    def test_fig9_mode_time_shares_sum_to_one(self, fig9):
        for row in fig9:
            assert sum(row.arrayflex.time_share_by_depth().values()) == pytest.approx(1.0)

    def test_renders_are_non_empty(self, fig8, fig9):
        assert "Fig. 8" in render_fig8(fig8)
        assert "Fig. 9" in render_fig9(fig9)


class TestOtherExperiments:
    def test_eq7_agreement_high(self):
        result = eq7_validation()
        assert result.agreement_rate >= 0.8

    def test_clock_experiment_paper_frequencies(self):
        result = operating_points()
        assert result.conventional_ghz == pytest.approx(2.0)
        assert result.mode_ghz[4] == pytest.approx(1.4)

    def test_csa_ablation_shows_csa_benefit(self):
        result = csa_ablation()
        deepest = max(result.entries, key=lambda e: e.collapse_depth)
        assert deepest.model_saving_with_csa > deepest.model_saving_without_csa

    def test_direction_ablation_both_wins(self):
        result = direction_ablation()
        for entry in result.entries:
            assert entry.cycles_both < min(
                entry.cycles_vertical_only, entry.cycles_horizontal_only
            )

    def test_all_experiments_run_and_render(self):
        """Smoke test: every experiment id renders non-empty tables."""
        for name, factory in EXPERIMENT_FACTORIES.items():
            tables = factory(None) if name in _SCHEDULING_EXPERIMENTS else factory()
            for text in tables:
                assert isinstance(text, str) and text


class TestTransformerSuite:
    @pytest.fixture(scope="class")
    def result(self):
        return comparison_grid(get_suite("transformers"), sizes=(128,))

    def test_covers_all_three_workloads_with_phases(self, result):
        assert {(row.model_name, row.phase) for row in result} == {
            ("BERT-Base", "prefill"),
            ("ViT-B/16", "prefill"),
            ("GPT-2-decode", "decode"),
        }

    def test_every_workload_saves_latency(self, result):
        low, high = value_range(result, "latency_saving")
        assert 0.0 < low <= high < 1.0

    def test_decode_saves_most(self, result):
        """T = batch decode is the small-T regime collapsing pays off in."""
        savings = {row.model_name: row.latency_saving for row in result}
        assert savings["GPT-2-decode"] == max(savings.values())

    def test_render_mentions_workloads(self, result):
        text = render_transformers(result)
        assert "BERT-Base" in text and "decode" in text

    def test_batched_backend_matches_analytical(self):
        transformers = get_suite("transformers")
        fast = comparison_grid(transformers, sizes=(128,), backend="batched")
        reference = comparison_grid(transformers, sizes=(128,), backend="analytical")
        assert fast == reference
