"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring):

* ``serve_mixed`` -- open-loop traffic to ``python -m repro serve``;
* ``sweep_store`` -- a store-backed design-space sweep, cold then restarted;
* ``cycle_cold``  -- the cycle backend on a fresh service.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload and seed with per-layer timing (:mod:`layers`) and prints the
per-layer metrics instead.  Every output is checked against
``AnalyticalBackend``; any mismatch makes the command exit 1.  The last
line of standard output is the JSON result.

The seed drives every generated input.  Seeds 1-20 were used while the
benchmark was tuned; seed 7919 is held out, for confirming a later
performance claim on inputs nobody tuned against.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from common import emit, use_source_tree

WORKLOADS = ("serve_mixed", "sweep_store", "cycle_cold")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_source_tree()
    workload = importlib.import_module(args.workload)
    outcome = (workload.trace if args.trace else workload.run)(args.seed, args.seconds)
    attempted, failed = outcome["attempted"], outcome["failed"]
    metrics = dict(outcome["metrics"])
    report = list(outcome["report"])
    if not args.trace:
        # The result line carries the success share: a metric that is 0 on
        # every good run cannot be bounded relative to its median.
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
        report.append(f"  failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    return emit(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
    )


if __name__ == "__main__":
    sys.exit(main())
