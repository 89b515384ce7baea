"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENT_FACTORIES, build_parser, main
from repro.workloads import list_workloads


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert (args.rows, args.cols) == (128, 128)
        assert args.depths == [1, 2, 4]

    def test_experiment_choices_cover_all_paper_figures(self):
        assert {"fig5", "fig6", "fig7", "fig8", "fig9", "eq7", "clock"} <= set(
            EXPERIMENT_FACTORIES
        )

    def test_experiment_choices_include_transformer_suite(self):
        assert "transformers" in EXPERIMENT_FACTORIES

    def test_model_choices_come_from_the_registry(self):
        assert {"resnet34", "mobilenet_v1", "convnext_tiny", "bert_base"} <= set(
            list_workloads()
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["--cache-dir", "cache", "batch"],
            ["batch", "--no-cache"],
            ["serve", "--no-cache"],
            ["cache", "stats"],
            ["cache", "prune", "--max-bytes", "1"],
        ],
        ids=["cache-dir", "batch-no-cache", "serve-no-cache", "cache-stats", "cache-prune"],
    )
    def test_removed_cache_options_are_parse_errors(self, command):
        """The CLI keeps no decision cache on disk, so none of the options
        that configured one parse any more (exit 2)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command)
        assert excinfo.value.code == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--rows", "64", "--cols", "64"]) == 0
        out = capsys.readouterr().out
        assert "operating points" in out
        assert "1.4" in out and "2.0" in out

    def test_decide_selects_deep_mode_for_small_t(self, capsys):
        assert main(["decide", "--m", "512", "--n", "2304", "--t", "49"]) == 0
        out = capsys.readouterr().out
        assert "best collapse depth k = 4" in out
        assert "k_hat" in out

    def test_decide_selects_normal_mode_for_large_t(self, capsys):
        assert main(["decide", "--m", "64", "--n", "576", "--t", "3136"]) == 0
        assert "best collapse depth k = 1" in capsys.readouterr().out

    def test_compare_resnet(self, capsys):
        assert main(["compare", "--model", "resnet34"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-34" in out
        assert "saving" in out
        assert "energy-delay product gain" in out

    def test_compare_custom_geometry(self, capsys):
        assert main(["compare", "--model", "mobilenet_v1", "--rows", "64", "--cols", "64"]) == 0
        assert "64x64" in capsys.readouterr().out

    def test_experiment_fig6(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        assert "ArrayFlex PE" in capsys.readouterr().out

    def test_experiment_clock(self, capsys):
        assert main(["experiment", "clock"]) == 0
        assert "STA" in capsys.readouterr().out

    def test_experiment_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_report_writes_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(target)]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out

    def test_invalid_geometry_surfaces_as_error(self):
        with pytest.raises(ValueError):
            main(["info", "--rows", "100", "--cols", "100", "--depths", "1", "3"])


class TestBackendFlag:
    def test_default_backend_is_analytical(self, capsys):
        # Parser-level default is None (so commands can tell an explicit
        # request from the fallback); main() resolves it to analytical.
        assert build_parser().parse_args(["info"]).backend is None
        assert main(["compare", "--model", "resnet34"]) == 0
        assert "analytical backend" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "verilog", "info"])

    def test_compare_batched_matches_analytical(self, capsys):
        assert main(["--backend", "analytical", "compare", "--model", "resnet34"]) == 0
        reference = capsys.readouterr().out
        for backend in ("batched", "cycle"):
            assert main(["--backend", backend, "compare", "--model", "resnet34"]) == 0
            fast = capsys.readouterr().out
            # Identical numbers, only the backend tag in the header differs.
            assert fast.replace(f"{backend} backend", "analytical backend") == reference

    def test_compare_cycle_backend_small_array(self, capsys):
        assert (
            main(
                [
                    "--backend",
                    "cycle",
                    "compare",
                    "--rows",
                    "8",
                    "--cols",
                    "8",
                    "--model",
                    "mobilenet_v1",
                ]
            )
            == 0
        )
        assert "cycle backend" in capsys.readouterr().out

    def test_decide_accepts_backend_flag(self, capsys):
        assert main(["--backend", "cycle", "decide", "--m", "512", "--n", "2304", "--t", "49"]) == 0
        out = capsys.readouterr().out
        assert "best collapse depth" in out
        # decide always uses the Eq. (6) policy; the CLI says so explicitly
        # instead of silently ignoring the flag.
        assert "analytical Eq. (6) policy" in out

    def test_backend_flag_accepted_after_subcommand(self, capsys):
        assert main(["compare", "--model", "resnet34", "--backend", "batched"]) == 0
        assert "batched backend" in capsys.readouterr().out

    def test_sampled_backend_choice_is_a_parse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "sampled", "info"])
        assert excinfo.value.code == 2

    def test_batch_rejects_stray_sampling_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--sample-seed", "3", "batch", "--models", "resnet34",
                  "--sizes", "64x64"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["info"],
            ["decide", "--m", "64", "--n", "64", "--t", "8"],
            ["compare", "--model", "resnet34"],
            ["batch", "--models", "resnet34", "--sizes", "64x64"],
            ["serve", "--port", "0"],
            ["client", "healthz"],
            ["workloads"],
            ["experiment", "fig6"],
            ["ablate", "--models", "mobilenet_v1"],
            ["report"],
            ["trace", "summary", "does-not-exist.trace"],
        ],
        ids=lambda command: command[0],
    )
    def test_every_command_rejects_stray_sampling_flags(self, command):
        """The sampling flags left with the sampled backend: every command
        refuses them as a parse error (exit 2), never a silent no-op."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--sample-seed", "3", *command])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command, reason",
        [
            (["workloads"], "lists the registry"),
            (["report"], "regenerates EXPERIMENTS.md"),
            (["trace", "summary", "does-not-exist.trace"], "summarises"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else "reason",
    )
    def test_non_scheduling_commands_reject_explicit_backend(self, command, reason):
        """Commands that schedule nothing must say so instead of silently
        building (then discarding) the requested backend."""
        with pytest.raises(ValueError, match=reason):
            main(["--backend", "cycle", *command])


class TestWorkloadsCommand:
    def test_lists_all_suites(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for suite in ("cnn", "cnn_extended", "transformers"):
            assert f"suite {suite!r}:" in out
        for name in ("resnet34", "bert_base", "vit_b16", "gpt2_decode"):
            assert name in out

    def test_suite_filter(self, capsys):
        assert main(["workloads", "--suite", "transformers"]) == 0
        out = capsys.readouterr().out
        assert "bert_base" in out
        assert "resnet34" not in out

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="rnns"):
            main(["workloads", "--suite", "rnns"])

    def test_rejects_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), "workloads"])
        assert excinfo.value.code == 2


class TestCompareTransformers:
    def test_compare_accepts_registry_workload(self, capsys):
        assert main(["compare", "--model", "bert_base"]) == 0
        out = capsys.readouterr().out
        assert "BERT-Base" in out
        assert "saving" in out

    def test_compare_accepts_batch_suffix(self, capsys):
        assert main(["compare", "--model", "gpt2_decode@bs4"]) == 0
        assert "GPT-2-decode@bs4" in capsys.readouterr().out

    def test_compare_unknown_model_lists_available(self):
        with pytest.raises(ValueError, match="resnet34"):
            main(["compare", "--model", "alexnet"])


class TestBatchCommand:
    def test_batch_without_cache(self, capsys):
        assert main(["batch", "--models", "resnet34", "--sizes", "64x64"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-34" in out
        assert "64x64" in out
        assert "served 2 requests" in out
        assert "persistent cache" not in out
        assert "from disk" not in out

    def test_batch_suite_transformers(self, capsys):
        assert main(["batch", "--suite", "transformers", "--sizes", "64x64"]) == 0
        out = capsys.readouterr().out
        for name in ("BERT-Base", "GPT-2-decode", "ViT-B/16"):
            assert name in out
        assert "served 6 requests" in out

    def test_batch_models_and_suite_combine_without_duplicates(self, capsys):
        assert (
            main(
                [
                    "batch", "--models", "bert_base",
                    "--suite", "transformers", "--sizes", "64x64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("BERT-Base") == 1

    def test_batch_size_scales_workloads(self, capsys):
        assert (
            main(
                [
                    "batch", "--models", "gpt2_decode",
                    "--batch-size", "8", "--sizes", "64x64",
                ]
            )
            == 0
        )
        assert "GPT-2-decode@bs8" in capsys.readouterr().out

    def test_batch_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            main(["batch", "--batch-size", "0", "--sizes", "64x64"])

    def test_batch_reports_timed_out_rows_and_exits_nonzero(self, capsys, monkeypatch):
        """The timed-out branch of the batch report, forced deterministically."""
        from repro.serve import Response, SchedulingService

        def fake_compare(self, workloads, totals_only=False, timeout=None):
            workloads = list(workloads)
            self._ctr_timed_out.inc(2 * len(workloads))

            def timed_out(conventional):
                return Response(
                    status="timeout",
                    model_name="ResNet-34",
                    conventional=conventional,
                    timeout_s=timeout or 0.0,
                    cancelled=True,
                )

            return [(timed_out(False), timed_out(True)) for _ in workloads]

        monkeypatch.setattr(SchedulingService, "compare", fake_compare)
        code = main(
            [
                "batch", "--models", "resnet34",
                "--sizes", "64x64", "--timeout", "0.001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "timed out" in out
        assert "WARNING: 2 requests timed out" in out

    def test_batch_generous_timeout_reports_nothing(self, capsys):
        assert (
            main(
                [
                    "batch", "--models", "resnet34",
                    "--sizes", "64x64", "--timeout", "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "timed out" not in out

    def test_batch_defaults_cover_all_models(self, capsys):
        assert main(["batch", "--sizes", "64x64"]) == 0
        out = capsys.readouterr().out
        for name in ("ResNet-34", "MobileNetV1", "ConvNeXt-T"):
            assert name in out

    def test_batch_leaves_cache_and_home_directories_empty(self, tmp_path):
        """`python -m repro batch` writes no file: not under the cache
        directories it used to default to, nor anywhere under HOME."""
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(repo / "src")
        for variable in ("XDG_CACHE_HOME", "REPRO_CACHE_DIR", "HOME"):
            env[variable] = str(tmp_path)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "--models", "resnet34",
             "--sizes", "64x64"],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "served 2 requests" in completed.stdout
        assert list(tmp_path.iterdir()) == []

    def test_batch_invalid_size_surfaces_as_error(self):
        with pytest.raises(ValueError):
            main(["batch", "--sizes", "not-a-size"])

    def test_experiment_and_report_reject_cache_dir(self, tmp_path):
        for command in (
            ["experiment", "fig6"],
            ["report", "--output", str(tmp_path / "E.md")],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["--cache-dir", str(tmp_path), *command])
            assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_compare_without_batched_backend_rejects_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), "compare", "--model", "resnet34"])
        assert excinfo.value.code == 2

    def test_batch_rejects_non_batched_backend(self):
        with pytest.raises(ValueError):
            main(["--backend", "cycle", "batch", "--sizes", "64x64"])

    def test_batch_accepts_explicit_batched_backend(self, capsys):
        assert main(["--backend", "batched", "batch", "--sizes", "64x64"]) == 0
        assert "served" in capsys.readouterr().out

    def test_batch_backend_flag_after_subcommand(self, capsys):
        assert main(["batch", "--sizes", "64x64", "--backend", "batched"]) == 0
        assert "served" in capsys.readouterr().out
        with pytest.raises(ValueError):
            main(["batch", "--sizes", "64x64", "--backend", "cycle"])


class TestAblateCommand:
    FAST = ["ablate", "--models", "mobilenet_v1", "--rows", "16", "--cols", "16"]

    def test_default_components_run_end_to_end(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Component importance" in out
        assert "activity_model" in out
        assert "geometry" in out
        assert "depths" in out

    def test_explicit_components_and_metric(self, capsys):
        assert main(
            [
                *self.FAST,
                "--component", "activity_model=constant:utilization",
                "--metric", "latency",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "activity_model=utilization" in out

    def test_json_output_parses(self, capsys):
        assert main(
            [
                *self.FAST,
                "--component", "activity_model=constant:utilization",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"]["run_id"] == "baseline"
        assert [entry["component"] for entry in payload["ranking"]] == [
            "activity_model"
        ]

    def test_component_spellings_with_dashes(self, capsys):
        assert main(
            [*self.FAST, "--component", "activity-model=constant:utilization"]
        ) == 0
        assert "activity_model=utilization" in capsys.readouterr().out

    def test_malformed_component_rejected(self):
        with pytest.raises(ValueError, match="KNOB=BASELINE:ALT"):
            main([*self.FAST, "--component", "activity_model"])

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation knob"):
            main([*self.FAST, "--component", "voltage=1:2"])

    def test_backend_component_conflicts_with_backend_flag(self):
        with pytest.raises(ValueError, match="--backend"):
            main(
                [
                    "--backend", "batched", *self.FAST,
                    "--component", "backend=batched:analytical",
                ]
            )

    def test_rejects_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), *self.FAST])
        assert excinfo.value.code == 2
