#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the experiment harness.

Runs every experiment of ``repro.eval`` (one per figure/table of the paper
plus the ablations) and rewrites the repository's EXPERIMENTS.md with the
measured-vs-paper comparison, or writes it to the path given as the one
argument instead.

Run with:  python examples/generate_experiments_report.py [OUTPUT]
"""

import sys
from pathlib import Path

from repro.eval.paper_report import write_experiments_markdown


def main() -> None:
    default = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    content = write_experiments_markdown(str(target))
    print(f"wrote {target} ({len(content.splitlines())} lines)")


if __name__ == "__main__":
    main()
