"""Tests for the command-line interface."""

import argparse
import hashlib
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


DECIDE = ["decide", "--m", "64", "--n", "64", "--t", "8"]

#: Every (command, flag) pair the per-command grammar removed.  Each one
#: used to parse, then ran the command, ignored the flag or refused it
#: only at run time; ``--backend`` parsed before every command too.
REMOVED_FLAGS = [
    (["info"], ["--backend", "cycle"]),
    (["info"], ["--activity-model", "utilization"]),
    (DECIDE, ["--backend", "cycle"]),
    (DECIDE, ["--activity-model", "utilization"]),
    *(
        (["experiment", name], ["--backend", "cycle"])
        for name in ("fig5", "fig6", "eq7", "clock", "abl_csa", "abl_dirs")
    ),
    (["batch"], ["--backend", "cycle"]),
    (["serve"], ["--backend", "cycle"]),
    *(
        (["client", action], ["--backend", "cycle"])
        for action in ("healthz", "metrics", "schedule", "compare")
    ),
    (["workloads"], ["--backend", "cycle"]),
    (["report"], ["--backend", "cycle"]),
    (["trace", "summary", "missing.trace"], ["--backend", "cycle"]),
]

#: Bad values the grammar now rejects instead of a handler.
BAD_VALUES = [
    ["--backend", "cycle", "compare"],
    ["batch", "--sizes", "12"],
    ["batch", "--batch-size", "0"],
    ["ablate", "--batch-size", "0"],
    ["workloads", "--suite", "rnns"],
    ["batch", "--timeout", "-1", "--models", "resnet34", "--sizes", "16x16"],
    ["batch", "--timeout", "0"],
    ["batch", "--timeout", "nan"],
    ["batch", "--timeout", "inf"],
    ["batch", "--timeout", "1e10"],
    ["batch", "--timeout", "soon"],
    ["serve", "--timeout", "-1"],
    ["client", "schedule", "--timeout", "0"],
    ["client", "compare", "--timeout", "nan"],
    ["client", "--http-timeout", "0", "healthz"],
    ["client", "--http-timeout", "-5", "metrics"],
    ["ablate", "--timeout", "-1"],
    ["ablate", "--timeout", "inf"],
]


def _case_id(command, flag):
    """E.g. "experiment-fig5-backend" for ``experiment fig5 --backend``."""
    words = [word for word in command[:2] if not word.startswith("-")]
    return "-".join([*words, flag[0].lstrip("-")])


def _leaf_commands(parser, prefix=()):
    """Every runnable command path of ``parser``, e.g. ("client", "healthz")."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _leaf_commands(subparser, (*prefix, name))
            return
    yield prefix


LEAF_COMMANDS = list(_leaf_commands(build_parser()))


class TestGrammar:
    @pytest.mark.parametrize(
        "argvs",
        [[[*flag, *command], [*command, *flag]] for command, flag in REMOVED_FLAGS]
        + [[argv] for argv in BAD_VALUES],
        ids=[_case_id(command, flag) for command, flag in REMOVED_FLAGS]
        + ["-".join(word.lstrip("-") for word in argv) for argv in BAD_VALUES],
    )
    def test_unsupported_flag_or_bad_value_is_a_parse_error(self, argvs, tmp_path, monkeypatch):
        """Exit 2 before anything runs, with the flag before the command
        (the old global spelling) and after it."""
        monkeypatch.chdir(tmp_path)
        for argv in argvs:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
        assert list(tmp_path.iterdir()) == []

    def test_leaf_commands_are_all_found(self):
        assert len(LEAF_COMMANDS) == 26
        assert ("experiment", "fig7") in LEAF_COMMANDS
        assert ("trace", "summary") in LEAF_COMMANDS

    @pytest.mark.parametrize("command", LEAF_COMMANDS, ids=" ".join)
    def test_every_leaf_command_prints_help(self, command, capsys):
        """argparse formats help text only when it is printed, so a bad
        format string in one would otherwise surface only on request."""
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {' '.join(command)}")


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

    def test_invalid_geometry_surfaces_as_error(self, capsys):
        assert main(["info", "--rows", "100", "--cols", "100", "--depths", "1", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, message",
        [
            (["trace", "summary", "missing.trace"], "No such file"),
            (["trace", "summary", "list.json"], "not a Chrome trace-event JSON object"),
            (["serve", "--port", "70000"], "port must be 0-65535"),
            (["--log-level", "bogus", "info"], "unknown log level: 'bogus'"),
        ],
        ids=["missing-trace", "non-trace-json", "port-out-of-range", "unknown-log-level"],
    )
    def test_bad_input_is_one_error_line(self, command, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert message in err


#: sha256 of the stdout of ``experiment <id>`` for the five renders of the
#: comparison grid (Python 3.11, NumPy 2.4); every backend prints the same
#: bytes.
GRID_RENDER_SHA256 = {
    "fig7": "480bc86ad30c0f324e10018b7f1781a38097a10302ffb61376760b89603e2427",
    "fig8": "e7fdcb434c0becb28ab2f01e3c3cf055da48586a7bbf4de820c88a650e494dd2",
    "fig9": "bd1de0159809db227d47b4b567cf23e6881239acb0ab95b2b8f3a2b1ec9a9a41",
    "transformers": "251ac916909b5e75f8004b09063adbff340c1cd308144baacc1b63b950d9037c",
    "activity": "b276706961a85250b39f2f3ad01658403c54fb7ba40beaf9c2f44ef8ed0e9b0f",
}


class TestGridRenders:
    @pytest.mark.parametrize(
        "argv, digest",
        [(["experiment", name], digest) for name, digest in GRID_RENDER_SHA256.items()]
        + [(["experiment", "activity", "--backend", "cycle"], GRID_RENDER_SHA256["activity"])],
        ids=[*GRID_RENDER_SHA256, "activity-cycle"],
    )
    def test_rendered_bytes_are_pinned(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestBackendFlag:
    def test_default_backend_is_analytical(self, capsys):
        assert build_parser().parse_args(["compare"]).backend == "analytical"
        assert main(["compare", "--model", "resnet34"]) == 0
        assert "analytical backend" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "verilog", "info"])

    def test_compare_batched_matches_analytical(self, capsys):
        assert main(["compare", "--backend", "analytical", "--model", "resnet34"]) == 0
        reference = capsys.readouterr().out
        for backend in ("batched", "cycle"):
            assert main(["compare", "--backend", backend, "--model", "resnet34"]) == 0
            fast = capsys.readouterr().out
            # Identical numbers, only the backend tag in the header differs.
            assert fast.replace(f"{backend} backend", "analytical backend") == reference

    def test_compare_cycle_backend_small_array(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--backend",
                    "cycle",
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
        """Commands that schedule nothing take no --backend, so the old
        global spelling is a parse error (exit 2) before anything runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "cycle", *command])
        assert excinfo.value.code == 2, f"{command[0]} {reason}; --backend must not parse"


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

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["workloads", "--suite", "rnns"])
        assert excinfo.value.code == 2
        assert "rnns" in capsys.readouterr().err

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

    def test_compare_unknown_model_lists_available(self, capsys):
        assert main(["compare", "--model", "alexnet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "resnet34" in err


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
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--batch-size", "0", "--sizes", "64x64"])
        assert excinfo.value.code == 2

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
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--sizes", "not-a-size"])
        assert excinfo.value.code == 2

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
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "cycle", "batch", "--sizes", "64x64"])
        assert excinfo.value.code == 2

    def test_batch_backend_flag_after_subcommand(self):
        """batch always runs the batched backend, so it takes no --backend
        at all, not even one naming the backend it runs."""
        for backend in ("batched", "cycle"):
            with pytest.raises(SystemExit) as excinfo:
                main(["batch", "--sizes", "64x64", "--backend", backend])
            assert excinfo.value.code == 2


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

    def test_malformed_component_rejected(self, capsys):
        assert main([*self.FAST, "--component", "activity_model"]) == 2
        assert "KNOB=BASELINE:ALT" in capsys.readouterr().err

    def test_unknown_knob_rejected(self, capsys):
        assert main([*self.FAST, "--component", "voltage=1:2"]) == 2
        assert "unknown ablation knob" in capsys.readouterr().err

    def test_backend_component_conflicts_with_backend_flag(self, capsys):
        assert main(
            [
                *self.FAST, "--backend", "batched",
                "--component", "backend=batched:analytical",
            ]
        ) == 2
        assert "both fixed and ablated" in capsys.readouterr().err

    def test_backend_component_without_backend_flag(self, capsys):
        assert main([*self.FAST, "--component", "backend=batched:analytical"]) == 0
        assert "backend=analytical" in capsys.readouterr().out

    def test_rejects_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), *self.FAST])
        assert excinfo.value.code == 2
