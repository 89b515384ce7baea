"""Command-line interface of the ArrayFlex reproduction.

Run as ``python -m repro <command>``.  The CLI is a thin wrapper around the
public library API and the experiment harness, so everything it prints can
also be obtained programmatically; it exists so that the headline results
can be regenerated without writing any Python.

Commands
--------
``info``        Operating points and area figures of one configuration.
``decide``      Pipeline-mode decision (Eq. 6/7) for one GEMM.
``compare``     Latency / power / EDP of one workload versus the
                conventional SA.
``batch``       Serve a whole (workload x array size) grid through the
                batch front-end.
``serve``       Run the long-lived HTTP/JSON scheduler daemon
                (:mod:`repro.serve.daemon`): the batch front-end behind
                ``POST /v1/schedule|batch|compare`` plus ``GET
                /metrics`` and ``GET /healthz``, with bounded-queue
                backpressure, optional per-client rate limits, and a
                graceful SIGTERM drain.
``client``      Talk to a running daemon (``client healthz|metrics|
                schedule|compare``) — the smoke-test counterpart of
                ``serve``; typed daemon errors map to distinct exit
                codes (invalid request 2, queue full 3, rate limited 4,
                timeout 5).
``workloads``   List the workload registry (built-in CNN and transformer
                workloads, grouped by suite).
``experiment``  Run one of the paper experiments (fig5, fig6, fig7, fig8,
                fig9, eq7, clock, abl_csa, abl_dirs) or the beyond-paper
                ``transformers`` suite / ``activity`` sensitivity /
                ``ablation`` importance tables and print it.
``ablate``      Run a declarative ablation study over the design-space
                knobs (activity model, geometry, depths, backend,
                workloads, batch): baseline plus one-off runs fan out
                through the batch front-end and a per-component
                importance ranking is printed (or emitted as ``--json``).
``report``      Regenerate the EXPERIMENTS.md measured-vs-paper report.
``trace``       Hierarchical tracing (:mod:`repro.obs`): ``trace
                schedule`` runs one workload comparison with tracing
                enabled and writes Chrome trace-event JSON (open it in
                Perfetto or ``chrome://tracing``); ``trace summary``
                aggregates a written trace file per span name.

Each command parses exactly the flags it reads: a flag it would ignore
is a parse error (exit 2), like any other bad input.  Only the global
``--log-level``/``--log-json`` flags come before the command; they
configure structured logging on the ``repro`` logger (``--log-json``:
JSON-lines records carrying per-request correlation IDs).  The daemon
also honours the ``REPRO_LOG_LEVEL`` environment variable::

    python -m repro --log-level debug --log-json serve

Workloads are resolved by name through the :mod:`repro.workloads`
registry (``python -m repro workloads`` lists them); ``--suite`` selects
a whole registry suite and ``--batch-size`` maps the selection to batched
inference (T scaled by the batch)::

    python -m repro batch --suite transformers
    python -m repro compare --model bert_base

``--backend {analytical,batched,cycle}`` on the commands that schedule
(``compare``, ``trace schedule``, ``ablate`` and the experiments fig7,
fig8, fig9, transformers, activity and ablation) selects the execution
backend: the closed-form reference (the default), the vectorised/cached
fast path (same numbers), or the cycle-accurate measured path
(register-stepped probes once per array mode; for validation)::

    python -m repro compare --backend batched --model resnet34
    python -m repro compare --backend cycle --model resnet34

``batch`` and ``serve`` always run the batched backend.  No command keeps
a decision cache on disk (``DesignSpaceExplorer(cache_dir=...)`` is the
library's one persistent store).

``--activity-model {constant,utilization}`` (on ``compare``, ``batch``,
``ablate``, ``trace schedule`` and ``client schedule|compare``) selects
the per-layer power activity model: ``constant`` is the paper's
every-PE-busy behaviour, ``utilization`` derates datapath energy by each
layer's occupied-PE tiling fraction.  ``compare`` and ``batch`` report
the resulting per-component energy breakdown::

    python -m repro compare --model mobilenet_v1 --activity-model utilization
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from collections.abc import Sequence

from repro.backends import BACKENDS
from repro.core.activity import ACTIVITY_MODELS
from repro.core.arrayflex import ArrayFlexAccelerator
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import ModelSchedule
from repro.timing.power_model import ArrayPowerBreakdown
from repro.eval.ablation import default_study
from repro.eval.experiments import (
    comparison_grid,
    csa_ablation,
    direction_ablation,
    eq7_validation,
    fig5_depth_sweep,
    fig6_area,
    operating_points,
    render_abl_csa,
    render_abl_dirs,
    render_activity,
    render_clock,
    render_eq7,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_fig9,
    render_transformers,
)
from repro.eval.report import format_percent, format_ratio
from repro.nn.models import convnext_tiny, model_zoo
from repro.workloads import get_suite, get_workload, list_suites, workload_entry

#: Experiments selectable from the command line, each a factory of the
#: tables it prints.  The factories of the experiments that schedule
#: workloads take the ``--backend`` name.
EXPERIMENT_FACTORIES = {
    "fig5": lambda: [render_fig5(fig5_depth_sweep(20)), render_fig5(fig5_depth_sweep(28))],
    "fig6": lambda: [render_fig6(fig6_area())],
    "fig7": lambda backend: [
        render_fig7(comparison_grid([convnext_tiny()], sizes=(128,), backend=backend)[0])
    ],
    "fig8": lambda backend: [
        render_fig8(comparison_grid(list(model_zoo().values()), backend=backend))
    ],
    "fig9": lambda backend: [
        render_fig9(comparison_grid(list(model_zoo().values()), backend=backend))
    ],
    "eq7": lambda: [render_eq7(eq7_validation())],
    "clock": lambda: [render_clock(operating_points())],
    "abl_csa": lambda: [render_abl_csa(csa_ablation())],
    "abl_dirs": lambda: [render_abl_dirs(direction_ablation())],
    "transformers": lambda backend: [
        render_transformers(comparison_grid(get_suite("transformers"), backend=backend))
    ],
    "activity": lambda backend: [
        render_activity(
            comparison_grid(
                list(model_zoo().values()) + get_suite("transformers"),
                activity_models=("constant", "utilization"),
                backend=backend,
            )
        )
    ],
    "ablation": lambda backend: [default_study(backend=backend).run().render()],
}

#: The experiments whose results depend on the execution backend.
_SCHEDULING_EXPERIMENTS = {"fig7", "fig8", "fig9", "transformers", "activity", "ablation"}


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _timeout_seconds(text: str) -> float:
    """A deadline in seconds, in ``(0, threading.TIMEOUT_MAX]`` like a ``Request``'s."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = float("nan")
    # Written so that NaN fails too; past TIMEOUT_MAX a wait overflows.
    if not 0 < seconds <= threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds up to {threading.TIMEOUT_MAX:g}, "
            f"got {text!r}"
        )
    return seconds


def _finite_float(low: float, *, inclusive: bool):
    """A ``type=`` for a finite number above ``low`` (or equal to it, if ``inclusive``)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < low or (value == low and not inclusive):
            bound = f">= {low:g}" if inclusive else f"> {low:g}"
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text!r}")
        return value

    return parse


def _parse_size(text: str) -> tuple[int, int]:
    rows, _, cols = text.lower().partition("x")
    if not (rows.isdecimal() and cols.isdecimal()):
        raise argparse.ArgumentTypeError(f"array size must look like 128x128, got {text!r}")
    return int(rows), int(cols)


def _knob_parents(exclusive_selection: bool = False) -> tuple[argparse.ArgumentParser, ...]:
    """Parent parsers of the flags that set a design knob: geometry,
    depths, activity model and workload selection, in that order.

    With ``exclusive_selection``, ``--models`` and ``--suite`` exclude
    each other (``ablate``); ``batch`` combines them.
    """
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--rows", type=int, default=128, help="array rows (default: 128)")
    geometry.add_argument("--cols", type=int, default=128, help="array columns (default: 128)")
    depths = argparse.ArgumentParser(add_help=False)
    depths.add_argument(
        "--depths",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="supported collapse depths (default: 1 2 4)",
    )
    activity = argparse.ArgumentParser(add_help=False)
    activity.add_argument(
        "--activity-model",
        choices=sorted(ACTIVITY_MODELS),
        default="constant",
        help=(
            "per-layer power activity model: 'constant' (paper behaviour, "
            "every PE busy) or 'utilization' (edge tiles underfill the "
            "array, datapath energy scales with the occupied-PE fraction)"
        ),
    )
    selection = argparse.ArgumentParser(add_help=False)
    names = selection.add_mutually_exclusive_group() if exclusive_selection else selection
    names.add_argument(
        "--models", nargs="+", help="registry workload names (see the 'workloads' command)"
    )
    names.add_argument(
        "--suite",
        choices=list(list_suites()),
        default=None,
        help="a whole registry suite (default: cnn when --models is not given)",
    )
    selection.add_argument(
        "--batch-size",
        type=_positive_int,
        default=1,
        help="map the workloads to batched inference (T x batch; default: 1)",
    )
    return geometry, depths, activity, selection


def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar.

    Flags read by several commands live in small ``add_help=False``
    parent parsers attached only to the commands whose handler reads
    them, so an unsupported flag is a parse error by construction.
    """
    geometry, depths, activity, selection = _knob_parents()
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="analytical",
        help=(
            "execution backend: 'analytical' closed forms (default), 'batched' "
            "vectorised+cached fast path (identical numbers), 'cycle' "
            "cycle-accurate measurement (calibrated once per array mode)"
        ),
    )
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument(
        "--model",
        default="resnet34",
        help=(
            "registry workload name, e.g. resnet34 or bert_base; append @bsN "
            "for batched inference (see the 'workloads' command; default: resnet34)"
        ),
    )
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=None,
        help="service thread count (default: auto from CPU count)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ArrayFlex (DATE 2023) reproduction command-line interface",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help=(
            "configure logging on the 'repro' logger at this level "
            "(debug/info/warning/...); default: logging stays unconfigured "
            "(or follows the REPRO_LOG_LEVEL environment variable)"
        ),
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit JSON-lines log records (one object per line, with "
            "per-request correlation IDs) instead of plain text"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "info", parents=[geometry, depths], help="operating points and area of a configuration"
    )

    decide = subparsers.add_parser(
        "decide", parents=[geometry, depths], help="pipeline-mode decision for one GEMM"
    )
    decide.add_argument("--m", type=int, required=True, help="output dimension M (columns of B)")
    decide.add_argument("--n", type=int, required=True, help="reduction dimension N (rows of B)")
    decide.add_argument("--t", type=int, required=True, help="streamed dimension T (rows of A)")

    subparsers.add_parser(
        "compare",
        parents=[model, geometry, depths, backend, activity],
        help="compare ArrayFlex against the conventional SA on one workload",
    )

    batch = subparsers.add_parser(
        "batch",
        parents=[selection, depths, workers, activity],
        help="serve a (workload x array size) grid through the batch front-end",
        description=(
            "Serve a (workload x array size) grid on the batched backend. "
            "--models and --suite combine (each workload once)."
        ),
    )
    batch.add_argument(
        "--timeout",
        type=_timeout_seconds,
        default=None,
        help=(
            "per-request result deadline in seconds; timed-out requests are "
            "reported instead of hanging the batch (default: wait forever)"
        ),
    )
    batch.add_argument(
        "--sizes",
        type=_parse_size,
        nargs="+",
        default=[(128, 128)],
        help="array sizes as RxC (default: 128x128)",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[workers],
        help="run the HTTP/JSON scheduler daemon (Ctrl-C / SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8537,
        help="bind port; 0 picks an ephemeral port (default: 8537)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help=(
            "bounded admission queue: requests beyond this many in flight "
            "are shed with HTTP 429 + Retry-After (default: 64)"
        ),
    )
    serve.add_argument(
        "--rate-limit",
        type=_finite_float(0, inclusive=False),
        default=None,
        help=(
            "per-client token-bucket rate in requests/second, keyed by the "
            "X-Client-Id header or peer host (default: no rate limiting)"
        ),
    )
    serve.add_argument(
        "--rate-burst",
        type=_finite_float(1, inclusive=True),
        default=None,
        help="token-bucket burst depth (default: one second's worth of --rate-limit)",
    )
    serve.add_argument(
        "--timeout",
        type=_timeout_seconds,
        default=None,
        help=(
            "default per-request result deadline in seconds, applied when a "
            "wire request carries none (default: wait forever)"
        ),
    )

    client = subparsers.add_parser(
        "client", help="talk to a running scheduler daemon (see 'serve')"
    )
    client.add_argument("--host", default="127.0.0.1", help="daemon address (default: 127.0.0.1)")
    client.add_argument("--port", type=int, default=8537, help="daemon port (default: 8537)")
    client.add_argument(
        "--client-id",
        default=None,
        help="X-Client-Id header value (the daemon's rate-limit key)",
    )
    client.add_argument(
        "--http-timeout",
        type=_timeout_seconds,
        default=120.0,
        help="HTTP socket timeout in seconds (default: 120)",
    )
    client_actions = client.add_subparsers(dest="client_action", required=True)
    client_actions.add_parser("healthz", help="liveness probe (prints the JSON body)")
    client_actions.add_parser(
        "metrics", help="request/latency/cache counters (prints the JSON body)"
    )
    for action, description in (
        ("schedule", "schedule one workload through the daemon"),
        ("compare", "compare ArrayFlex vs the conventional SA through the daemon"),
    ):
        client_action = client_actions.add_parser(
            action, parents=[model, geometry, depths, activity], help=description
        )
        client_action.add_argument(
            "--totals-only",
            action="store_true",
            help="request aggregate totals instead of a full schedule",
        )
        client_action.add_argument(
            "--timeout",
            type=_timeout_seconds,
            default=None,
            help="per-request result deadline in seconds",
        )
        if action == "schedule":
            client_action.add_argument(
                "--conventional",
                action="store_true",
                help="schedule the conventional fixed-pipeline baseline",
            )

    workloads = subparsers.add_parser(
        "workloads", help="list the workload registry (grouped by suite)"
    )
    workloads.add_argument(
        "--suite", choices=list(list_suites()), default=None, help="only list one suite (default: all)"
    )

    experiment_ids = subparsers.add_parser(
        "experiment", help="run one paper experiment"
    ).add_subparsers(dest="id", required=True, help="experiment id")
    for name in sorted(EXPERIMENT_FACTORIES):
        experiment_ids.add_parser(
            name, parents=[backend] if name in _SCHEDULING_EXPERIMENTS else []
        )

    ablate_geometry, ablate_depths, ablate_activity, ablate_selection = _knob_parents(
        exclusive_selection=True
    )
    ablate = subparsers.add_parser(
        "ablate",
        parents=[ablate_selection, ablate_geometry, ablate_depths, workers, ablate_activity],
        help=(
            "run a declarative ablation study (baseline plus one-off runs "
            "over design knobs) and print the per-component importance ranking"
        ),
        description=(
            "Run a declarative ablation study. A knob flag given fixes that "
            "knob for every run, so a --component on the same knob is refused; "
            "the stock study starts its activity-model, geometry and depths "
            "components at --activity-model, --rows/--cols and --depths."
        ),
    )
    # Its own copies of the knob flags, so that this touches no other
    # command: a knob flag left out reads None.
    ablate.set_defaults(rows=None, cols=None, depths=None, activity_model=None, batch_size=None)
    ablate.add_argument(
        "--component",
        action="append",
        default=None,
        metavar="KNOB=BASELINE:ALT[,ALT...]",
        help=(
            "one knob under ablation, repeatable: its baseline value, a colon, "
            "then comma-separated alternatives — e.g. "
            "'activity_model=constant:utilization', 'geometry=128x128:256x256', "
            "'depths=1+2+4:1+2,1+4' (default: the stock activity-model/"
            "geometry/depths study)"
        ),
    )
    ablate.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help=(
            "fix every run's execution backend (default: the study's own, "
            "batched; a 'backend' component cannot be combined with it)"
        ),
    )
    ablate.add_argument(
        "--pairwise",
        action="store_true",
        help=(
            "also run the cross grid of every component pair's alternatives "
            "and report interactions (combined delta minus the sum of parts)"
        ),
    )
    ablate.add_argument(
        "--metric",
        choices=["latency", "energy", "edp"],
        default="edp",
        help="primary importance-ranking metric (default: edp)",
    )
    ablate.add_argument(
        "--timeout",
        type=_timeout_seconds,
        default=None,
        help=(
            "per-run result deadline in seconds; timed-out runs are reported "
            "and excluded from the ranking (default: wait forever)"
        ),
    )
    ablate.add_argument(
        "--json",
        action="store_true",
        help="print the full study result as JSON instead of tables",
    )

    report = subparsers.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument(
        "--output", default="EXPERIMENTS.md", help="output path (default: EXPERIMENTS.md)"
    )

    trace = subparsers.add_parser(
        "trace", help="run with hierarchical tracing and export Chrome trace JSON"
    )
    trace_actions = trace.add_subparsers(dest="trace_action", required=True)
    trace_schedule = trace_actions.add_parser(
        "schedule",
        parents=[model, geometry, depths, backend, activity],
        help=(
            "schedule one workload (ArrayFlex vs conventional) with tracing "
            "on and write the spans as Chrome trace-event JSON"
        ),
    )
    trace_schedule.add_argument(
        "--output",
        default="trace.json",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    trace_summary = trace_actions.add_parser(
        "summary", help="aggregate a written Chrome trace file per span name"
    )
    trace_summary.add_argument("path", help="trace JSON file written by 'trace schedule'")
    return parser


# ---------------------------------------------------------------------- #
# Command implementations
# ---------------------------------------------------------------------- #
def _build_accelerator(args: argparse.Namespace) -> ArrayFlexAccelerator:
    return ArrayFlexAccelerator(
        rows=args.rows,
        cols=args.cols,
        supported_depths=tuple(args.depths),
        backend=args.backend,
        activity_model=args.activity_model,
    )


def _breakdown_shares(schedule: ModelSchedule) -> str:
    """Energy composition of one run as 'datapath/clock/leakage' percents."""
    composition = schedule.energy_breakdown_nj()
    total = composition["total"] or 1.0
    datapath = sum(
        composition[component]
        for component in ArrayPowerBreakdown.DATAPATH_COMPONENTS
    )
    clock = composition["register_clock"]
    leakage = composition["leakage"]
    return (
        f"{100 * datapath / total:2.0f}/{100 * clock / total:2.0f}"
        f"/{100 * leakage / total:2.0f}"
    )


def _cmd_info(args: argparse.Namespace) -> int:
    accel = ArrayFlexAccelerator(args.rows, args.cols, tuple(args.depths))
    print(f"ArrayFlex {args.rows}x{args.cols}, supported depths {sorted(args.depths)}")
    print("operating points (GHz):")
    for name, freq in accel.frequency_table().items():
        print(f"  {name:16s} {freq:.1f}")
    area = accel.area_report()
    print(
        f"PE area: conventional {area['conventional_pe_um2']:.0f} um^2, "
        f"ArrayFlex {area['arrayflex_pe_um2']:.0f} um^2 "
        f"({format_percent(area['pe_area_overhead'])} overhead)"
    )
    print(
        f"array area: conventional {area['conventional_array_mm2']:.1f} mm^2, "
        f"ArrayFlex {area['arrayflex_array_mm2']:.1f} mm^2"
    )
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    accel = ArrayFlexAccelerator(args.rows, args.cols, tuple(args.depths))
    decision = accel.decide((args.m, args.n, args.t))
    print(
        f"GEMM (M={args.m}, N={args.n}, T={args.t}) on {args.rows}x{args.cols}: "
        f"best collapse depth k = {decision.collapse_depth} "
        f"at {decision.clock_frequency_ghz:.1f} GHz"
    )
    print(f"analytical optimum (Eq. 7): k_hat = {decision.analytical_depth:.2f}")
    print(
        f"array utilization (occupied-PE fraction of the tiling): "
        f"{format_percent(decision.array_utilization)}"
    )
    for depth, time_ns in sorted(decision.per_depth_time_ns.items()):
        marker = "  <-- selected" if depth == decision.collapse_depth else ""
        print(f"  k={depth}: {time_ns / 1000.0:10.2f} us{marker}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    accel = _build_accelerator(args)
    model = get_workload(args.model)
    report = accel.compare_with_conventional(model)
    print(
        f"{model.name} on {args.rows}x{args.cols} SAs "
        f"({len(model.gemms())} GEMM layers, {accel.backend.name} backend)"
    )
    print(
        f"  execution time: conventional {report.conventional.total_time_ms:.3f} ms, "
        f"ArrayFlex {report.arrayflex.total_time_ms:.3f} ms "
        f"({format_percent(report.latency_saving)} saving)"
    )
    print(
        f"  average power : conventional {report.conventional.average_power_mw / 1000:.1f} W, "
        f"ArrayFlex {report.arrayflex.average_power_mw / 1000:.1f} W "
        f"({format_percent(report.power_saving)} saving)"
    )
    print(f"  energy-delay product gain: {format_ratio(report.edp_gain)}")
    print(f"  layers per pipeline mode: {report.arrayflex.depth_histogram()}")
    arrayflex = report.arrayflex
    print(
        f"  activity model '{args.activity_model}': "
        f"avg utilization {format_percent(arrayflex.average_utilization())}, "
        f"avg activity {format_percent(arrayflex.average_activity())}"
    )
    print("  ArrayFlex energy breakdown (nJ):")
    composition = arrayflex.energy_breakdown_nj()
    total = composition["total"] or 1.0
    for component, energy in composition.items():
        if component == "total":
            continue
        print(
            f"    {component:22s} {energy:14.1f}  ({format_percent(energy / total)})"
        )
    print(f"    {'total':22s} {composition['total']:14.1f}")
    return 0


def _batch_workloads(args: argparse.Namespace) -> list:
    """The workload selection of the ``batch`` command, registry-resolved.

    ``--models`` names and ``--suite`` members combine (each workload
    once, selection order); with neither given, the paper's ``cnn`` suite
    is served — the historical default grid.
    """
    workloads = []
    seen = set()
    if args.models:
        workloads.extend(get_workload(name, batch=args.batch_size) for name in args.models)
    if args.suite:
        workloads.extend(get_suite(args.suite, batch=args.batch_size))
    if not args.models and not args.suite:
        workloads = get_suite("cnn", batch=args.batch_size)
    unique = []
    for workload in workloads:
        if workload.name not in seen:
            seen.add(workload.name)
            unique.append(workload)
    return unique


def _cmd_batch(args: argparse.Namespace) -> int:
    """Serve a (workload x size) grid through the batch front-end.

    Always runs on the batched backend, so it takes no ``--backend``.
    Returns a non-zero exit code when ``--timeout`` expired on any
    request (the timed-out rows are reported, not hung on).
    """
    from repro.serve import SchedulingService

    depths = tuple(args.depths)
    grid = [
        (
            workload,
            ArrayFlexConfig(
                rows=rows,
                cols=cols,
                supported_depths=depths,
                activity_model=args.activity_model,
            ),
        )
        for workload in _batch_workloads(args)
        for rows, cols in args.sizes
    ]
    name_width = max(18, max(len(w.name) for w, _ in grid))
    service = SchedulingService(max_workers=args.workers)
    try:
        pairs = service.compare(grid, timeout=args.timeout)
        print(
            f"{'workload':{name_width}s} {'array':9s} "
            f"{'conv ms':>9s} {'flex ms':>9s} {'saving':>7s} "
            f"{'flex uJ':>10s} {'dp/clk/lk %':>11s}"
        )
        for (workload, config), (flex_response, conv_response) in zip(grid, pairs):
            geometry = f"{config.rows}x{config.cols:<6d}"
            if not flex_response.ok or not conv_response.ok:
                print(
                    f"{workload.name:{name_width}s} {geometry} "
                    f"{'-':>9s} {'-':>9s} {'timed out':>9s}"
                )
                continue
            arrayflex = flex_response.result
            conventional = conv_response.result
            saving = 1.0 - arrayflex.total_time_ns / conventional.total_time_ns
            print(
                f"{arrayflex.model_name:{name_width}s} {geometry} "
                f"{conventional.total_time_ms:9.3f} {arrayflex.total_time_ms:9.3f} "
                f"{format_percent(saving):>7s} "
                f"{arrayflex.total_energy_nj / 1000.0:10.1f} "
                f"{_breakdown_shares(arrayflex):>11s}"
            )
        stats = service.stats()
    finally:
        # Waiting would block on the very computations a deadline just
        # abandoned; after timeouts, walk away and cancel queued work.
        abandoned = bool(service.stats().get("timed_out", 0))
        service.close(wait=not abandoned, cancel_futures=abandoned)
    print(
        f"served {stats['requests']} requests "
        f"({stats['deduplicated']} deduplicated) on {stats['max_workers']} threads"
    )
    timed_out = int(stats.get("timed_out", 0))
    if timed_out:
        print(f"WARNING: {timed_out} requests timed out after {args.timeout}s")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP/JSON scheduler daemon until drained.

    Like ``batch``, always the batched backend.  SIGTERM and SIGINT
    (Ctrl-C) trigger a graceful drain: the listening socket closes,
    in-flight requests finish, and the process exits 0.  A
    ``--rate-burst`` without ``--rate-limit`` exits 2.
    """
    from repro.serve import SchedulerDaemon

    daemon = SchedulerDaemon(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        max_inflight=args.max_inflight,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        default_timeout=args.timeout,
    )
    daemon.install_signal_handlers()
    host, port = daemon.address
    print(f"repro scheduler daemon on http://{host}:{port}", flush=True)
    print(
        "  POST /v1/schedule  /v1/batch  /v1/compare   GET /metrics  /healthz",
        flush=True,
    )
    daemon.serve_forever()
    print("drained: in-flight requests finished")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running daemon; typed errors become distinct exit codes."""
    from repro.serve import DaemonClient, Request, ServeError

    client = DaemonClient(
        host=args.host,
        port=args.port,
        timeout=args.http_timeout,
        client_id=args.client_id,
    )
    try:
        if args.client_action in ("healthz", "metrics"):
            body = client.healthz() if args.client_action == "healthz" else client.metrics()
            print(json.dumps(body, indent=2, sort_keys=True))
            return 0
        request = Request(
            model=args.model,
            config=ArrayFlexConfig(
                rows=args.rows,
                cols=args.cols,
                supported_depths=tuple(args.depths),
                activity_model=args.activity_model,
            ),
            conventional=args.client_action == "schedule" and args.conventional,
            totals_only=args.totals_only,
            timeout=args.timeout,
        )
        if args.client_action == "schedule":
            body = client.schedule(request)
            _print_client_result(body)
            return 0
        pair = client.compare([request])["pairs"][0]
        _print_client_result(pair[0])
        _print_client_result(pair[1])
        flex_time = pair[0]["result"]["time_ns"]
        conv_time = pair[1]["result"]["time_ns"]
        print(f"latency saving: {format_percent(1.0 - flex_time / conv_time)}")
        return 0
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        if exc.retry_after_s is not None:
            print(f"retry after {exc.retry_after_s:g}s", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(
            f"error: cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1


def _print_client_result(body: dict) -> None:
    """One human-readable line per wire response body."""
    kind = "conventional" if body.get("conventional") else "arrayflex"
    result = body.get("result")
    if body.get("status") != "ok" or result is None:
        print(f"{body.get('model_name', '?')} [{kind}]: {body.get('status')}")
        return
    time_ms = result["time_ns"] / 1e6
    power_w = result["average_power_mw"] / 1e3
    line = (
        f"{body['model_name']} [{kind}]: {time_ms:.3f} ms, "
        f"{result['energy_nj'] / 1e3:.1f} uJ, {power_w:.1f} W"
    )
    if result.get("kind") == "schedule":
        line += f", modes {result['depth_histogram']}"
    print(line)


def _cmd_workloads(args: argparse.Namespace) -> int:
    """List the workload registry, grouped by suite."""
    suites = list_suites()
    if args.suite is not None:
        suites = {args.suite: suites[args.suite]}
    for suite, names in suites.items():
        print(f"suite {suite!r}:")
        for name in names:
            workload = get_workload(name)
            entry = workload_entry(name)
            gemms = workload.gemms()
            macs = sum(g.macs for g in gemms)
            print(
                f"  {name:16s} {workload.name:16s} {len(gemms):4d} GEMMs "
                f"{macs / 1e9:8.2f} GMACs  {entry.description}"
            )
    print(
        "\nuse --model/--models/--suite to schedule these; append @bsN to a "
        "name (or pass --batch-size) for batched inference"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    factory = EXPERIMENT_FACTORIES[args.id]
    tables = factory(args.backend) if args.id in _SCHEDULING_EXPERIMENTS else factory()
    for table in tables:
        print(table)
        print()
    return 0


def _parse_component(text: str):
    """One ``--component KNOB=BASELINE:ALT[,ALT...]`` declaration."""
    from repro.eval.ablation import Component

    knob, equals, values = text.partition("=")
    baseline, colon, alternatives = values.partition(":")
    if not equals or not colon or not knob.strip() or not baseline.strip():
        raise ValueError(
            f"--component must look like KNOB=BASELINE:ALT[,ALT...], got {text!r}"
        )
    return Component(
        knob.strip().replace("-", "_"),
        baseline.strip(),
        tuple(part.strip() for part in alternatives.split(",") if part.strip()),
    )


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Run a declarative ablation study and print the importance ranking.

    A knob flag given fixes its knob for every run, so a ``--component``
    on the same knob meets the study's "both fixed and ablated" refusal
    (exit 2).  Without ``--component``, the stock study flips the
    activity model, doubles the array and drops the deepest mode, each
    starting from its flag.
    """
    from repro.eval.ablation import DEFAULT_SETTINGS, AblationStudy, Component

    fixed = {
        knob: value
        for knob, value in {
            "backend": args.backend,
            "activity_model": args.activity_model,
            "depths": args.depths,
            "batch": args.batch_size,
            "workloads": args.models,
            "suite": args.suite,
        }.items()
        if value is not None
    }
    if args.rows is not None or args.cols is not None:
        rows, cols = DEFAULT_SETTINGS["geometry"]
        fixed["geometry"] = (
            rows if args.rows is None else args.rows,
            cols if args.cols is None else args.cols,
        )
    if args.component:
        components = [_parse_component(text) for text in args.component]
    else:
        baseline = {**DEFAULT_SETTINGS, **fixed}
        activity = baseline["activity_model"]
        rows, cols = baseline["geometry"]
        depths = baseline["depths"]
        components = [
            Component(
                "activity_model", activity, tuple(sorted(set(ACTIVITY_MODELS) - {activity}))
            ),
            Component("geometry", (rows, cols), ((rows * 2, cols * 2),)),
        ]
        if len(depths) > 1:
            components.append(
                Component("depths", depths, (tuple(sorted(depths)[:-1]),))
            )
        # The stock components start from their flags instead of fixing them.
        for component in components:
            fixed.pop(component.name, None)
    study = AblationStudy(
        components=components,
        fixed=fixed,
        pairwise=args.pairwise,
        metric=args.metric,
        max_workers=args.workers,
        timeout=args.timeout,
    )
    result = study.run()
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.render())
    timed_out = [run for run in result.runs if not run.ok]
    if timed_out:
        print(
            f"WARNING: {len(timed_out)} runs timed out after {args.timeout}s",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one workload comparison, or summarise a written trace file."""
    if args.trace_action == "summary":
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{args.path} is not a Chrome trace-event JSON object")
        events = payload.get("traceEvents", [])
        if not events:
            print(f"{args.path}: no trace events")
            return 1
        by_name: dict[str, list[int]] = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(int(event.get("dur", 0)))
        print(f"{args.path}: {len(events)} spans, {len(by_name)} distinct names")
        print(f"{'span':28s} {'count':>7s} {'total ms':>10s} {'mean ms':>9s} {'max ms':>9s}")
        for name, durations in sorted(
            by_name.items(), key=lambda item: -sum(item[1])
        ):
            total = sum(durations)
            print(
                f"{name:28s} {len(durations):7d} {total / 1e3:10.3f} "
                f"{total / len(durations) / 1e3:9.3f} {max(durations) / 1e3:9.3f}"
            )
        return 0

    from repro.obs.trace import configure_tracing, get_tracer

    tracer = configure_tracing(True)
    tracer.clear()
    accel = _build_accelerator(args)
    model = get_workload(args.model)
    report = accel.compare_with_conventional(model)
    count = get_tracer().export_chrome(args.output)
    print(
        f"{model.name} on {args.rows}x{args.cols} ({accel.backend.name} backend): "
        f"{format_percent(report.latency_saving)} latency saving"
    )
    print(
        f"wrote {count} spans to {args.output} — open in Perfetto "
        f"(https://ui.perfetto.dev) or chrome://tracing"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.paper_report import write_experiments_markdown

    content = write_experiments_markdown(args.output)
    print(f"wrote {args.output} ({len(content.splitlines())} lines)")
    return 0


_HANDLERS = {
    "info": _cmd_info,
    "decide": _cmd_decide,
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "workloads": _cmd_workloads,
    "experiment": _cmd_experiment,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A ``ValueError``, ``OSError`` or ``OverflowError`` out of a command
    (an unknown workload, depths that do not divide the array, an
    unreadable file, a port past 65535) exits 2 with one
    ``repro: error: ...`` line, like a parse error, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # One configuration point for the 'repro' logger (idempotent: the
        # daemon's REPRO_LOG_LEVEL hook replaces, never stacks, the handler).
        level = args.log_level or os.environ.get("REPRO_LOG_LEVEL")
        if level or args.log_json:
            from repro.obs.logs import configure_logging

            configure_logging(level=level or "INFO", json_lines=args.log_json)
        return _HANDLERS[args.command](args)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
