"""Tests for the EXPERIMENTS.md generator."""

from pathlib import Path

import pytest

from repro.eval.paper_report import generate_experiments_markdown, write_experiments_markdown


@pytest.fixture(scope="module")
def markdown():
    return generate_experiments_markdown()


class TestContent:
    def test_every_paper_artifact_has_a_section(self, markdown):
        for heading in (
            "## Operating points",
            "## Fig. 5",
            "## Fig. 6",
            "## Fig. 7",
            "## Fig. 8",
            "## Fig. 9",
            "## Eq. (7)",
            "## Ablations",
        ):
            assert heading in markdown

    def test_mentions_all_three_models(self, markdown):
        for model in ("ResNet-34", "MobileNetV1", "ConvNeXt-T"):
            assert model in markdown

    def test_paper_frequencies_present(self, markdown):
        assert "| conventional | 2.0 | 2.0 |" in markdown

    def test_regeneration_instructions_present(self, markdown):
        assert "generate_experiments_report.py" in markdown

    def test_markdown_tables_well_formed(self, markdown):
        """Every markdown table row has the same number of columns as its header."""
        lines = markdown.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("|") and i + 1 < len(lines) and set(lines[i + 1]) <= {"|", "-", " "}:
                header_cols = line.count("|")
                j = i + 2
                while j < len(lines) and lines[j].startswith("|"):
                    assert lines[j].count("|") == header_cols, lines[j]
                    j += 1


class TestWriting:
    def test_write_round_trip(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        content = write_experiments_markdown(str(target))
        assert target.read_text(encoding="utf-8") == content

    def test_repo_copy_is_up_to_date_in_structure(self, markdown):
        """The committed EXPERIMENTS.md is byte-identical to a freshly
        generated one: regenerate it with ``python -m repro report``
        whenever a change moves a number or a section."""
        repo_copy = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
        assert repo_copy.exists(), "EXPERIMENTS.md missing from the repository root"
        assert repo_copy.read_text(encoding="utf-8") == markdown
