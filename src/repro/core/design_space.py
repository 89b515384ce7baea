"""Design-space exploration around the ArrayFlex design point.

The paper evaluates two array sizes (128x128 and 256x256) and one supported
mode set ({1, 2, 4}).  A natural question for anyone adopting the
architecture is how those choices generalise: would supporting k = 8 help?
Is a rectangular array better for a given workload mix?  How much latency
is left on the table by restricting the mode set?

:class:`DesignSpaceExplorer` answers these questions with the same models
used for the paper experiments: every candidate design point (array
geometry + supported collapse depths) is evaluated over a workload suite
and scored on latency saving, power saving, EDP gain and area overhead
relative to a conventional fixed-pipeline array of the same geometry.

Evaluation runs on a pluggable execution backend (default: the batched /
cached backend, numerically identical to the analytical reference; it
scores a whole point — every GEMM of every workload — in one mode search).
Pass ``cache_dir`` to persist those decisions on disk, so a rerun sweep —
another process, a CI job — starts warm and skips the mode search
entirely.

Multi-point sweeps fan out over a process pool, one task per design
point: pass ``max_workers`` explicitly, or let large candidate sets
default to one worker per usable CPU.  With a ``cache_dir`` configured,
each point's decisions reach the store from the one worker that scored
it: a point whose shard is new is written as one merge at once; rows
added to a shard already on disk are buffered by the store and written
at its next merge, at the latest when that worker (or the process)
exits.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from repro.core.config import ArrayFlexConfig
from repro.nn.models import CnnModel
from repro.obs.trace import call_with_context, get_tracer
from repro.timing.area_model import AreaModel
from repro.timing.technology import TechnologyModel

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.backends import ExecutionBackend, ModelTotals
    from repro.core.activity import ActivityModel
    from repro.workloads.base import Workload

#: Candidate-set size from which ``explore`` fans out over a process pool
#: by default (when ``max_workers`` was not pinned anywhere).  The
#: implicit fan-out only runs under ``fork``, so a worker costs no package
#: import, but forking the pool and shipping every result back is a fixed
#: cost that small sweeps, done serially in milliseconds, never win back.
AUTO_PARALLEL_MIN_POINTS = 64


def _usable_cpus() -> int:
    """CPUs this process may run on.

    Its affinity mask where the platform has one, so a process pinned to
    one CPU (``taskset``, a cgroup cpuset) stays serial; else the
    machine's CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class DesignPoint:
    """One candidate ArrayFlex configuration to evaluate."""

    rows: int
    cols: int
    supported_depths: tuple[int, ...]

    @property
    def label(self) -> str:
        depths = ",".join(str(d) for d in sorted(self.supported_depths))
        return f"{self.rows}x{self.cols} k={{{depths}}}"


@dataclass(frozen=True)
class DesignPointResult:
    """Aggregate metrics of one design point over a workload suite."""

    point: DesignPoint
    latency_saving: float
    power_saving: float
    edp_gain: float
    pe_area_overhead: float
    arrayflex_time_ms: float
    conventional_time_ms: float
    per_model_latency_saving: dict[str, float]

    @property
    def label(self) -> str:
        return self.point.label


class DesignSpaceExplorer:
    """Evaluates and ranks candidate ArrayFlex design points."""

    def __init__(
        self,
        models: list[CnnModel | Workload | str],
        technology: TechnologyModel | None = None,
        backend: ExecutionBackend | str | None = None,
        max_workers: int | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        activity_model: "ActivityModel | str | None" = None,
    ) -> None:
        from repro.backends import attach_store, create_backend
        from repro.core.activity import create_activity_model

        if not models:
            raise ValueError("the workload suite must contain at least one model")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        #: Workloads scoring every candidate point.  Accepts CNN layer
        #: tables, any :class:`repro.workloads` workload object, or
        #: registry names (``"bert_base"``, ``"resnet34@bs8"``) — names
        #: resolve once here, so sweep identity is fixed at construction.
        self.models = [self._resolve_model(model) for model in models]
        self.technology = technology or TechnologyModel.default_28nm()
        #: Backend evaluating every (design point, model) pair.  Defaults
        #: to the batched/cached backend: bit-identical to the analytical
        #: reference and much faster on sweeps, where workloads repeat.
        #: ``cache_dir`` attaches the disk-persistent decision store.
        self.backend = create_backend(attach_store(backend, cache_dir), default="batched")
        self.max_workers = max_workers
        #: Activity model every candidate configuration is evaluated
        #: under (``None``/"constant" keeps the bit-identical default;
        #: "utilization" prices edge-tile underfill per layer).  Part of
        #: every candidate's ``cache_key``, so cached decisions, store
        #: shards and serving dedup keys never mix activity models.
        self.activity_model = create_activity_model(activity_model)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_model(model: CnnModel | Workload | str) -> CnnModel | Workload:
        if isinstance(model, str):
            from repro.workloads import get_workload

            return get_workload(model)
        return model

    @classmethod
    def from_suite(
        cls, suite: str, batch: int = 1, **kwargs
    ) -> "DesignSpaceExplorer":
        """An explorer over a whole registry suite (``"cnn"``,
        ``"transformers"``, ...), optionally batch-scaled."""
        from repro.workloads import get_suite

        return cls(list(get_suite(suite, batch=batch)), **kwargs)

    # ------------------------------------------------------------------ #
    def evaluate_point(self, point: DesignPoint) -> DesignPointResult:
        """Evaluate one candidate design point over the workload suite."""
        config = self._config_for(point)
        return self._aggregate(
            point, config, self.backend.schedule_suite_totals(self.models, config)
        )

    def _config_for(self, point: DesignPoint) -> ArrayFlexConfig:
        return ArrayFlexConfig(
            rows=point.rows,
            cols=point.cols,
            supported_depths=point.supported_depths,
            technology=self.technology,
            activity_model=self.activity_model,
        )

    def _aggregate(
        self,
        point: DesignPoint,
        config: ArrayFlexConfig,
        pairs: list[tuple["ModelTotals", "ModelTotals"]],
    ) -> DesignPointResult:
        """Fold per-model (ArrayFlex, conventional) totals into one score."""
        area = AreaModel(self.technology)
        total_conv_time = 0.0
        total_af_time = 0.0
        total_conv_energy = 0.0
        total_af_energy = 0.0
        per_model_saving: dict[str, float] = {}

        for model, (arrayflex, conventional) in zip(self.models, pairs):
            per_model_saving[model.name] = 1.0 - arrayflex.time_ns / conventional.time_ns
            total_conv_time += conventional.time_ns
            total_af_time += arrayflex.time_ns
            total_conv_energy += conventional.energy_nj
            total_af_energy += arrayflex.energy_nj

        conv_power = total_conv_energy / total_conv_time
        af_power = total_af_energy / total_af_time
        conv_edp = total_conv_energy * total_conv_time
        af_edp = total_af_energy * total_af_time

        return DesignPointResult(
            point=point,
            latency_saving=1.0 - total_af_time / total_conv_time,
            power_saving=1.0 - af_power / conv_power,
            edp_gain=conv_edp / af_edp,
            pe_area_overhead=area.pe_area_overhead(),
            arrayflex_time_ms=total_af_time / 1e6,
            conventional_time_ms=total_conv_time / 1e6,
            per_model_latency_saving=per_model_saving,
        )

    # ------------------------------------------------------------------ #
    def explore(
        self, points: list[DesignPoint], max_workers: int | None = None
    ) -> list[DesignPointResult]:
        """Evaluate a list of candidate points (in the given order).

        With ``max_workers`` (here or on the constructor) greater than 1,
        the points fan out over a process pool; results come back in
        input order either way.  When no worker count was pinned
        anywhere, sweeps of at least :data:`AUTO_PARALLEL_MIN_POINTS`
        points default to one worker per CPU this process may use — the
        production posture for genuinely large sweeps, where the pool's
        fixed cost amortises.
        """
        if not points:
            raise ValueError("no design points to explore")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        workers = max_workers if max_workers is not None else self.max_workers
        if (
            workers is None
            and len(points) >= AUTO_PARALLEL_MIN_POINTS
            and self._auto_parallel_safe()
        ):
            workers = _usable_cpus()
        parallel = workers is not None and workers > 1 and len(points) > 1
        with get_tracer().span(
            "explorer.explore",
            points=len(points),
            models=len(self.models),
            parallel=parallel,
        ):
            if parallel:
                return self._explore_parallel(points, workers)
            return [self.evaluate_point(point) for point in points]

    def _auto_parallel_safe(self) -> bool:
        """Whether the *implicit* process-pool fan-out may kick in.

        Explicit ``max_workers`` is always honoured; the automatic default
        is conservative, because a process pool imposes requirements a
        previously-serial call never had: the backend must survive
        pickling (guaranteed for the batched engine, ``batched`` and
        ``cycle`` alike, not for arbitrary backend subclasses) and the
        ``spawn`` start method re-imports ``__main__``, which breaks
        unguarded scripts — so only the ``fork`` method qualifies.  A
        large ``cycle`` sweep therefore fans out too, and each worker
        calibrates its own measured lines.
        """
        import multiprocessing

        from repro.backends import BatchedCachedBackend

        import threading

        if not isinstance(self.backend, BatchedCachedBackend):
            return False
        # fork() from a multithreaded process can wedge a child on an
        # orphaned lock; the implicit default never takes that gamble.
        if threading.active_count() > 1:
            return False
        try:
            # allow_none: reading must not fix the start method as a side
            # effect — the host application may still want to choose one.
            method = multiprocessing.get_start_method(allow_none=True)
            if method is None:
                method = multiprocessing.get_all_start_methods()[0]
            return method == "fork"
        except (ValueError, RuntimeError):  # pragma: no cover - exotic platforms
            return False

    def _explore_parallel(
        self, points: list[DesignPoint], workers: int
    ) -> list[DesignPointResult]:
        """Fan the sweep out over a process pool, one task per point.

        The pool initializer installs this explorer (with its backend and
        that backend's cache state) in every worker once; each task then
        scores one whole point with :meth:`evaluate_point` and ships one
        small result back.  A point's decisions therefore come from one
        mode search and reach a configured store from one worker, so
        concurrent workers never race on a shard's read-merge-replace
        (equal points write equal rows).  Under an enabled tracer the span
        context travels with every task and the workers' spans are
        re-parented here.
        """
        tracer = get_tracer()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(points)),
            initializer=_init_worker,
            initargs=(self,),
        ) as pool:
            if not tracer.enabled:
                return list(pool.map(_evaluate_in_worker, points))
            results = []
            for result, spans in pool.map(
                call_with_context,
                repeat(tracer.current_context()),
                repeat(_evaluate_in_worker),
                points,
            ):
                tracer.extend(spans)
                results.append(result)
            return results

    def rank(
        self, points: list[DesignPoint], objective: str = "edp_gain"
    ) -> list[DesignPointResult]:
        """Evaluate and sort candidates by an objective (best first).

        Supported objectives: ``edp_gain``, ``latency_saving``,
        ``power_saving``.
        """
        valid = {"edp_gain", "latency_saving", "power_saving"}
        if objective not in valid:
            raise ValueError(f"objective must be one of {sorted(valid)}")
        results = self.explore(points)
        return sorted(results, key=lambda r: getattr(r, objective), reverse=True)

    # ------------------------------------------------------------------ #
    @staticmethod
    def default_candidates() -> list[DesignPoint]:
        """A reasonable sweep around the paper's design points."""
        candidates = []
        for size in (64, 128, 256):
            for depths in ((1, 2), (1, 2, 4), (1, 2, 4, 8)):
                if all(size % d == 0 for d in depths):
                    candidates.append(
                        DesignPoint(rows=size, cols=size, supported_depths=depths)
                    )
        return candidates


#: Per-worker explorer for process-pool sweeps, installed by the pool
#: initializer so every task scores on the worker's own warm(ing) backend.
_WORKER_EXPLORER: DesignSpaceExplorer | None = None


def _init_worker(explorer: DesignSpaceExplorer) -> None:
    global _WORKER_EXPLORER
    _WORKER_EXPLORER = explorer


def _evaluate_in_worker(point: DesignPoint) -> DesignPointResult:
    assert _WORKER_EXPLORER is not None, "process-pool initializer did not run"
    return _WORKER_EXPLORER.evaluate_point(point)
