"""Smoke tests: every shipped example runs to completion.

The examples double as executable documentation; breaking one is breaking
the public API story, so they are exercised here (with output captured).
"""

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Examples that write a file of the checkout by default, and that file;
#: the tests pass them a path under ``tmp_path`` instead.
WRITES_FILE = {"generate_experiments_report": "EXPERIMENTS.md"}


@pytest.mark.parametrize("example", EXAMPLES, ids=[e.stem for e in EXAMPLES])
def test_example_runs(example, capsys, monkeypatch, tmp_path):
    argv = [str(example)]
    written = WRITES_FILE.get(example.stem)
    if written is not None:
        before = (REPO / written).stat().st_mtime_ns
        argv.append(str(tmp_path / written))
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(example), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.strip(), f"{example.name} produced no output"
    if written is not None:
        assert (tmp_path / written).read_text()
        assert (REPO / written).stat().st_mtime_ns == before  # the checkout is untouched


def test_expected_examples_present():
    names = {e.stem for e in EXAMPLES}
    assert {
        "quickstart",
        "resnet34_layer_study",
        "convnext_per_layer",
        "cnn_suite_comparison",
        "functional_simulation",
    } <= names
