"""Declarative ablation/importance harness over the design space.

The repo exposes many orthogonal design knobs — execution backend,
activity model, array geometry, collapse-depth set, workload suite,
batch size — and "which knob mattered" used to be answered by a
hand-written experiment class per question.  This module turns that into
data:

* declare an :class:`AblationStudy` — a list of :class:`Component` knobs,
  each with a baseline value and one or more alternatives, plus fixed
  settings shared by every run;
* the study generates the **baseline-plus-one-off** run set (one run per
  alternative of each component, every other knob at baseline), plus the
  optional pairwise grid for interaction checks;
* the runs fan out through :class:`~repro.serve.SchedulingService`
  (request dedup, a thread pool, per-run timeouts and ``obs`` spans for
  free), one service per backend;
* per-component **importance** is the largest relative delta any of its
  alternatives causes on each metric (latency / energy / EDP), ranked on
  the study's primary metric.  Every backend is exact, so every nonzero
  delta is a real effect.

The run set, run ids, rankings and JSON payload are deterministic
functions of the declaration: the same study produces the same report
for any thread count and any submission order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.backends import ModelTotals, create_backend
from repro.core.config import ArrayFlexConfig
from repro.eval.report import format_table
from repro.obs.trace import get_tracer
from repro.serve.protocol import Request
from repro.serve.service import SchedulingService

#: Metrics every study scores, in report order.
METRICS = ("latency", "energy", "edp")

#: Every knob a :class:`Component` (or ``fixed``) may name, with the
#: study-wide baseline used when neither declares it.
DEFAULT_SETTINGS: dict[str, object] = {
    "backend": "batched",
    "activity_model": "constant",
    "technology": None,
    "geometry": (128, 128),
    "depths": (1, 2, 4),
    "suite": "cnn",
    "workloads": None,
    "batch": 1,
}

KNOBS = tuple(DEFAULT_SETTINGS)


def _normalize(name: str, value: object) -> object:
    """Canonicalise one knob value (also accepts the CLI spellings)."""
    if name not in DEFAULT_SETTINGS:
        raise ValueError(f"unknown ablation knob {name!r} (known: {', '.join(KNOBS)})")
    if value is None:
        return None
    if name == "geometry":
        if isinstance(value, str):
            rows, _, cols = value.lower().partition("x")
            try:
                return (int(rows), int(cols))
            except ValueError:
                raise ValueError(
                    f"geometry must look like 128x128, got {value!r}"
                ) from None
        rows, cols = value
        return (int(rows), int(cols))
    if name == "depths":
        if isinstance(value, str):
            parts = value.replace("+", " ").split()
            try:
                return tuple(int(part) for part in parts)
            except ValueError:
                raise ValueError(
                    f"depths must look like 1+2+4, got {value!r}"
                ) from None
        return tuple(int(depth) for depth in value)
    if name == "batch":
        return int(value)
    if name == "workloads":
        if isinstance(value, str):
            return (value,)
        return tuple(value)
    return value


def format_value(name: str, value: object) -> str:
    """The run-id spelling of one knob value (stable across sessions)."""
    if name == "geometry":
        rows, cols = value
        return f"{rows}x{cols}"
    if name == "depths":
        return "+".join(str(depth) for depth in value)
    if name == "workloads":
        return ",".join(
            workload if isinstance(workload, str) else workload.name
            for workload in value
        )
    if name == "backend":
        return value if isinstance(value, str) else value.name
    if name == "activity_model":
        return value if isinstance(value, str) else type(value).__name__
    if name == "technology":
        return getattr(value, "name", None) or type(value).__name__
    return str(value)


@dataclass(frozen=True)
class Component:
    """One ablatable knob: a baseline value and its alternatives."""

    name: str
    baseline: object
    alternatives: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "baseline", _normalize(self.name, self.baseline))
        alternatives = tuple(
            _normalize(self.name, alternative) for alternative in self.alternatives
        )
        if not alternatives:
            raise ValueError(
                f"component {self.name!r} needs at least one alternative"
            )
        labels = [format_value(self.name, value) for value in alternatives]
        if len(set(labels)) != len(labels):
            raise ValueError(f"component {self.name!r} has duplicate alternatives")
        if format_value(self.name, self.baseline) in labels:
            raise ValueError(
                f"component {self.name!r} lists its baseline as an alternative"
            )
        object.__setattr__(self, "alternatives", alternatives)


@dataclass(frozen=True)
class RunSpec:
    """One generated run: its stable id and the knobs it flips."""

    run_id: str
    overrides: tuple[tuple[str, object], ...] = ()

    @property
    def is_baseline(self) -> bool:
        return not self.overrides

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.overrides)


def _override_id(overrides: Sequence[tuple[str, object]]) -> str:
    return "|".join(f"{name}={format_value(name, value)}" for name, value in overrides)


@dataclass
class WorkloadRun:
    """One workload's results inside one run."""

    name: str
    result: ModelTotals | None
    ok: bool = True


@dataclass
class RunResult:
    """Measured aggregates of one run of the study."""

    spec: RunSpec
    settings: dict[str, object]
    workloads: list[WorkloadRun] = field(default_factory=list)

    @property
    def run_id(self) -> str:
        return self.spec.run_id

    @property
    def ok(self) -> bool:
        return all(workload.ok for workload in self.workloads)

    @property
    def status(self) -> str:
        return "ok" if self.ok else "timeout"

    @property
    def time_ns(self) -> float:
        return sum(w.result.time_ns for w in self.workloads if w.ok)

    @property
    def energy_nj(self) -> float:
        return sum(w.result.energy_nj for w in self.workloads if w.ok)

    def metric(self, name: str) -> float:
        if name == "latency":
            return self.time_ns / 1e6  # ms
        if name == "energy":
            return self.energy_nj / 1e3  # uJ
        if name == "edp":
            return self.energy_nj * self.time_ns
        raise ValueError(f"unknown metric {name!r} (known: {', '.join(METRICS)})")

    def metrics(self) -> dict[str, float]:
        return {name: self.metric(name) for name in METRICS}


@dataclass
class RunDelta:
    """One non-baseline run's relative deltas against the baseline."""

    run: RunResult
    deltas: dict[str, float]

    @property
    def run_id(self) -> str:
        return self.run.run_id


@dataclass
class ComponentImportance:
    """Importance of one component: its worst-case one-off deltas."""

    component: str
    deltas: list[RunDelta]
    primary: str
    rank: int = 0

    def importance(self, metric: str) -> float:
        return max(
            (abs(delta.deltas[metric]) for delta in self.deltas if delta.run.ok),
            default=0.0,
        )

    @property
    def score(self) -> float:
        return self.importance(self.primary)

    @property
    def driver(self) -> RunDelta | None:
        """The one-off run with the largest primary-metric delta."""
        candidates = [delta for delta in self.deltas if delta.run.ok]
        if not candidates:
            return None
        return max(candidates, key=lambda delta: abs(delta.deltas[self.primary]))


@dataclass
class AblationStudy:
    """A declared ablation study over the design space.

    ``components`` are the knobs under test; ``fixed`` pins any other
    knob (see :data:`KNOBS`) for every run.  ``pairwise=True`` adds the
    cross grid of every component pair's alternatives, reported as
    interactions (never folded into the one-off importance ranking).
    ``metric`` picks the primary ranking metric.  Every run is scored
    on ArrayFlex totals only.
    """

    components: Sequence[Component]
    fixed: Mapping[str, object] = field(default_factory=dict)
    pairwise: bool = False
    metric: str = "edp"
    max_workers: int | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        self.components = list(self.components)
        if not self.components:
            raise ValueError("an ablation study needs at least one component")
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names: {names}")
        if self.metric not in METRICS:
            raise ValueError(
                f"metric must be one of {METRICS}, got {self.metric!r}"
            )
        self.fixed = {
            name: _normalize(name, value) for name, value in dict(self.fixed).items()
        }
        overlap = set(self.fixed) & set(names)
        if overlap:
            raise ValueError(
                f"knobs {sorted(overlap)} are both fixed and ablated; "
                f"declare each knob in exactly one place"
            )
        selection = {"workloads", "suite"}
        if selection & set(self.fixed) and selection & set(names):
            raise ValueError(
                "knobs 'workloads' and 'suite' select the same workloads (a "
                "workload list replaces the suite); fix the selection or ablate it"
            )

    # ------------------------------------------------------------------ #
    # Run-set generation (pure function of the declaration)
    # ------------------------------------------------------------------ #
    def baseline_settings(self) -> dict[str, object]:
        settings = dict(DEFAULT_SETTINGS)
        settings.update(self.fixed)
        for component in self.components:
            settings[component.name] = component.baseline
        return settings

    def settings_for(self, spec: RunSpec) -> dict[str, object]:
        settings = self.baseline_settings()
        settings.update(dict(spec.overrides))
        return settings

    def generate_runs(self) -> list[RunSpec]:
        """Baseline, then one run per alternative, then the pairwise grid."""
        specs = [RunSpec(run_id="baseline")]
        for component in self.components:
            for alternative in component.alternatives:
                overrides = ((component.name, alternative),)
                specs.append(RunSpec(run_id=_override_id(overrides), overrides=overrides))
        if self.pairwise:
            for i, first in enumerate(self.components):
                for second in self.components[i + 1:]:
                    for alt_first in first.alternatives:
                        for alt_second in second.alternatives:
                            overrides = (
                                (first.name, alt_first),
                                (second.name, alt_second),
                            )
                            specs.append(
                                RunSpec(
                                    run_id=_override_id(overrides),
                                    overrides=overrides,
                                )
                            )
        return specs

    # ------------------------------------------------------------------ #
    def run(self, order: Sequence[str] | None = None) -> "StudyResult":
        """Execute the study; see :func:`execute_study`."""
        return execute_study(self, order=order)


# ---------------------------------------------------------------------- #
# Execution: fan-out through SchedulingService, grouped by backend
# ---------------------------------------------------------------------- #
def _run_workloads(settings: Mapping[str, object]) -> list:
    from repro.workloads import get_suite, get_workload

    batch = int(settings["batch"])
    workloads = settings["workloads"]
    if workloads is not None:
        return [
            get_workload(workload, batch=batch)
            if isinstance(workload, str)
            else workload
            for workload in workloads
        ]
    return get_suite(str(settings["suite"]), batch=batch)


def _run_config(settings: Mapping[str, object]) -> ArrayFlexConfig:
    rows, cols = settings["geometry"]
    kwargs: dict[str, object] = {
        "rows": rows,
        "cols": cols,
        "supported_depths": tuple(settings["depths"]),
        "activity_model": settings["activity_model"],
    }
    if settings["technology"] is not None:
        kwargs["technology"] = settings["technology"]
    return ArrayFlexConfig(**kwargs)


def execute_study(
    study: AblationStudy, order: Sequence[str] | None = None
) -> "StudyResult":
    """Run every generated run of ``study`` through scheduling services.

    Runs are grouped by backend name; each group goes through one
    :class:`SchedulingService` as a single ``submit_many`` batch, so the
    whole group runs with full thread-pool concurrency, duplicate
    requests are computed once, and per-run deadlines
    (``study.timeout``) can never hang the study.  ``order`` optionally permutes the *submission*
    order of the run ids — results are always collected back into the
    canonical generated order, so any permutation yields an identical
    :class:`StudyResult` (pinned by the determinism tests).
    """
    specs = study.generate_runs()
    by_id = {spec.run_id: spec for spec in specs}
    if order is None:
        ordered = specs
    else:
        order = list(order)
        if sorted(order) != sorted(by_id):
            raise ValueError(
                "order must be a permutation of the generated run ids"
            )
        ordered = [by_id[run_id] for run_id in order]

    # Resolve every run, then bucket by backend name (first-seen instance
    # wins, so runs on the same backend share one warm service).
    plans: list[tuple[RunSpec, dict, str, list[Request]]] = []
    groups: dict[str, object] = {}
    for spec in ordered:
        settings = study.settings_for(spec)
        backend = create_backend(settings["backend"])
        key = backend.name
        groups.setdefault(key, backend)
        config = _run_config(settings)
        requests = [
            Request(model=workload, config=config, totals_only=True, timeout=study.timeout)
            for workload in _run_workloads(settings)
        ]
        plans.append((spec, settings, key, requests))

    results: dict[str, RunResult] = {}
    with get_tracer().span(
        "ablation.study",
        runs=len(specs),
        components=len(study.components),
    ):
        for key, backend in groups.items():
            group = [plan for plan in plans if plan[2] == key]
            service = SchedulingService(backend=backend, max_workers=study.max_workers)
            try:
                flat = [request for plan in group for request in plan[3]]
                responses = service.submit_many(flat, timeout=study.timeout)
            finally:
                timed_out = bool(service.stats().get("timed_out", 0))
                service.close(wait=not timed_out, cancel_futures=timed_out)
            cursor = 0
            for spec, settings, _, requests in group:
                run = RunResult(spec=spec, settings=settings)
                for response in responses[cursor:cursor + len(requests)]:
                    run.workloads.append(
                        WorkloadRun(
                            name=response.model_name,
                            result=response.result if response.ok else None,
                            ok=response.ok,
                        )
                    )
                cursor += len(requests)
                results[spec.run_id] = run

    baseline = results["baseline"]
    if not baseline.ok:
        raise RuntimeError(
            "the baseline run timed out; every delta is relative to it "
            "(raise study.timeout or shrink the baseline workload)"
        )
    one_off = [results[s.run_id] for s in specs if len(s.overrides) == 1]
    pairwise = [results[s.run_id] for s in specs if len(s.overrides) > 1]
    deltas = {run.run_id: _delta(baseline, run) for run in one_off + pairwise}
    ranking = [
        ComponentImportance(
            component=component.name,
            deltas=[
                deltas[run.run_id]
                for run in one_off
                if run.spec.components == (component.name,)
            ],
            primary=study.metric,
        )
        for component in study.components
    ]
    ranking.sort(key=lambda entry: (-entry.score, entry.component))
    for position, entry in enumerate(ranking, start=1):
        entry.rank = position
    return StudyResult(
        study=study,
        baseline=baseline,
        one_off=one_off,
        pairwise=pairwise,
        deltas=deltas,
        ranking=ranking,
    )


def _delta(baseline: RunResult, run: RunResult) -> RunDelta:
    deltas: dict[str, float] = {}
    for metric in METRICS:
        base = baseline.metric(metric)
        value = run.metric(metric)
        if not run.ok:
            delta = 0.0
        elif base == 0.0:
            delta = 0.0 if value == 0.0 else float("inf")
        else:
            delta = value / base - 1.0
        deltas[metric] = delta
    return RunDelta(run=run, deltas=deltas)


# ---------------------------------------------------------------------- #
# The study report
# ---------------------------------------------------------------------- #
@dataclass
class StudyResult:
    """Everything one executed study measured, decided and ranked."""

    study: AblationStudy
    baseline: RunResult
    one_off: list[RunResult]
    pairwise: list[RunResult]
    deltas: dict[str, RunDelta]
    ranking: list[ComponentImportance]

    @property
    def runs(self) -> list[RunResult]:
        """Every run in canonical order (baseline, one-offs, pairwise)."""
        return [self.baseline] + self.one_off + self.pairwise

    def run(self, run_id: str) -> RunResult:
        for candidate in self.runs:
            if candidate.run_id == run_id:
                return candidate
        raise KeyError(run_id)

    def interaction(self, run: RunResult) -> float:
        """Pairwise delta minus the sum of its parts (primary metric)."""
        metric = self.study.metric
        combined = self.deltas[run.run_id].deltas[metric]
        parts = sum(
            self.deltas[_override_id((override,))].deltas[metric]
            for override in run.spec.overrides
        )
        return combined - parts

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The runs table plus the importance ranking (and interactions)."""
        metric = self.study.metric
        run_rows = []
        for run in [self.baseline] + self.one_off:
            delta = self.deltas.get(run.run_id)
            run_rows.append(
                (
                    run.run_id,
                    run.status,
                    run.metric("latency"),
                    run.metric("energy"),
                    f"{run.metric('edp'):.4e}",
                    *(
                        (_format_delta(delta.deltas[m]) for m in METRICS)
                        if delta is not None
                        else ("--", "--", "--")
                    ),
                )
            )
        blocks = [
            format_table(
                [
                    "run",
                    "status",
                    "latency (ms)",
                    "energy (uJ)",
                    "EDP",
                    "d latency",
                    "d energy",
                    "d EDP",
                ],
                run_rows,
                title=(
                    f"Ablation runs -- baseline plus one-off "
                    f"({len(self.one_off)} variants)"
                ),
            )
        ]
        ranking_rows = []
        for entry in self.ranking:
            driver = entry.driver
            ranking_rows.append(
                (
                    entry.rank,
                    entry.component,
                    driver.run_id if driver is not None else "--",
                    *(
                        (_format_delta(driver.deltas[m]) for m in METRICS)
                        if driver is not None
                        else ("--", "--", "--")
                    ),
                    _format_delta(entry.score, signed=False),
                )
            )
        blocks.append(
            format_table(
                [
                    "rank",
                    "component",
                    "driver run",
                    "d latency",
                    "d energy",
                    "d EDP",
                    "importance",
                ],
                ranking_rows,
                title=f"Component importance -- ranked on {metric}",
            )
        )
        if self.pairwise:
            pair_rows = [
                (
                    run.run_id,
                    run.status,
                    _format_delta(self.deltas[run.run_id].deltas[metric]),
                    _format_delta(self.interaction(run)) if run.ok else "--",
                )
                for run in self.pairwise
            ]
            blocks.append(
                format_table(
                    ["run", "status", f"d {metric}", "interaction"],
                    pair_rows,
                    title="Pairwise runs -- combined delta vs sum of one-offs",
                )
            )
        return "\n\n".join(blocks)

    def to_json(self) -> dict:
        """A deterministic, JSON-serialisable view of the whole study."""
        metric = self.study.metric

        def run_payload(run: RunResult) -> dict:
            payload = {
                "run_id": run.run_id,
                "overrides": {
                    name: format_value(name, value)
                    for name, value in run.spec.overrides
                },
                "status": run.status,
                "metrics": run.metrics(),
            }
            delta = self.deltas.get(run.run_id)
            if delta is not None:
                payload["deltas"] = dict(delta.deltas)
            return payload

        payload = {
            "metric": metric,
            "baseline": run_payload(self.baseline),
            "runs": [run_payload(run) for run in self.one_off],
            "ranking": [
                {
                    "rank": entry.rank,
                    "component": entry.component,
                    "driver": (
                        entry.driver.run_id if entry.driver is not None else None
                    ),
                    "importance": {m: entry.importance(m) for m in METRICS},
                }
                for entry in self.ranking
            ],
        }
        if self.pairwise:
            payload["pairwise"] = [
                dict(run_payload(run), interaction=self.interaction(run))
                for run in self.pairwise
            ]
        return payload


def _format_delta(value: float, signed: bool = True) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return "inf"
    sign = "+" if signed else ""
    return f"{value * 100:{sign}.2f}%"


# ---------------------------------------------------------------------- #
# The default study (CLI default, EXPERIMENTS.md, smoke tests)
# ---------------------------------------------------------------------- #
def default_study(
    backend=None,
    suite: str = "cnn",
    timeout: float | None = None,
) -> AblationStudy:
    """The stock "which knob mattered" study over the paper's CNN suite.

    Ablates the three cheap headline knobs against the paper baseline —
    activity model (constant -> utilization), array geometry (128x128 ->
    256x256) and the supported collapse-depth set ({1,2,4} -> {1,2}) —
    on aggregate totals.
    """
    fixed: dict[str, object] = {"suite": suite}
    if backend is not None:
        fixed["backend"] = backend
    return AblationStudy(
        components=[
            Component("activity_model", "constant", ("utilization",)),
            Component("geometry", (128, 128), ((256, 256),)),
            Component("depths", (1, 2, 4), ((1, 2),)),
        ],
        fixed=fixed,
        metric="edp",
        timeout=timeout,
    )
