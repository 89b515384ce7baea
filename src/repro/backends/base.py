"""The execution-backend base class.

Every way of "running" a workload on the accelerator subclasses
:class:`ExecutionBackend` and is called with the configuration as an
argument, so one instance serves any number of design points:

* ``schedule_layer(gemm, config) -> LayerMetrics`` decides the pipeline
  mode of one GEMM and returns its cycles / time / power;
* ``schedule_model(model, config) -> ModelSchedule`` does the same for
  every layer of a workload (a CNN layer table, a transformer GEMM trace,
  any ``repro.workloads`` registry name or an explicit GEMM list);
* ``schedule_model_totals`` / ``schedule_suite_totals`` return only the
  aggregate time and energy, which is all a sweep reads.

Three backends implement it, with one reference and one engine:

* :class:`~repro.backends.analytical.AnalyticalBackend` is the
  reference: the per-layer loops of this base class over the closed
  forms of :mod:`repro.core`;
* :class:`~repro.backends.batched.BatchedCachedBackend` is the engine:
  one vectorised Eq. (6) mode search per batch of layers behind an LRU of
  decisions;
* :class:`~repro.backends.cycle_accurate.CycleAccurateBackend` runs that
  same engine on measured per-tile cycles (lines fitted to
  register-stepped probe tiles) instead of Eq. (3).

All three produce numerically interchangeable schedules, which
``tests/test_backends.py`` pins down bit for bit.
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.clock import ClockModel
from repro.core.config import ArrayFlexConfig
from repro.core.energy import EnergyModel
from repro.core.latency import LatencyModel
from repro.core.metrics import (
    LayerMetrics,
    ModelSchedule,
    WorkloadArgument,
    resolve_workload,
)
from repro.core.optimizer import PipelineOptimizer
from repro.nn.gemm_mapping import GemmShape
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class ModelTotals:
    """Aggregate run metrics of one model on one accelerator.

    The sweep-style call sites (design-space exploration, size sweeps)
    only consume totals, so backends may produce these without
    materialising per-layer :class:`LayerMetrics` objects.  Totals are
    bit-identical to summing the corresponding :class:`ModelSchedule`
    properties: same values, same left-to-right summation order.
    """

    time_ns: float
    energy_nj: float

    @property
    def average_power_mw(self) -> float:
        if self.time_ns == 0:
            return 0.0
        return self.energy_nj * 1000.0 / self.time_ns

    @property
    def energy_delay_product(self) -> float:
        return self.energy_nj * self.time_ns


class ExecutionBackend(abc.ABC):
    """Base class of all execution backends.

    Subclasses implement :meth:`schedule_layer`; the model-level loop,
    the conventional-baseline path and the per-configuration component
    cache are shared here.  Backends are stateless with respect to the
    accelerator configuration — the configuration is an argument of every
    call — so one backend instance can serve arbitrarily many design
    points (which is what lets the batched backend's cache span a whole
    design-space sweep).
    """

    #: Registry key and CLI spelling of the backend.
    name: str = "abstract"

    #: Bound on the per-configuration component bundles kept alive, so a
    #: sweep over very many geometries cannot grow the backend unboundedly.
    MAX_COMPONENT_BUNDLES = 128

    def __init__(self) -> None:
        self._components: OrderedDict[tuple, _ConfigComponents] = OrderedDict()
        self._components_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Pickling (locks cannot cross process boundaries; subclasses with
    # extra transient state extend these)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_components_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._components_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def flush_store(self) -> None:
        """Flush buffered decision-store writes to disk.

        No-op for backends without an attached
        :class:`~repro.backends.store.DecisionStore` (or without one at
        all).  The store buffers rows between shard merges; long-lived
        callers (the serving front-end's ``close``, for a backend its
        caller gave it) call this as a final drain.
        """
        store = getattr(self, "store", None)
        if store is not None:
            store.flush()

    @abc.abstractmethod
    def schedule_layer(
        self, gemm: GemmShape, config: ArrayFlexConfig, index: int = 1
    ) -> LayerMetrics:
        """Decide the pipeline mode of one GEMM and measure/model its run."""

    def schedule_model(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
    ) -> ModelSchedule:
        """Schedule every layer of a model (one decision per layer)."""
        gemms, name = resolve_workload(model, model_name)
        schedule = ModelSchedule(
            model_name=name,
            accelerator="ArrayFlex",
            rows=config.rows,
            cols=config.cols,
        )
        with get_tracer().span(
            "backend.schedule_model", backend=self.name, model=name, layers=len(gemms)
        ):
            for index, gemm in enumerate(gemms, start=1):
                schedule.layers.append(self.schedule_layer(gemm, config, index=index))
        return schedule

    def schedule_model_totals(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
        conventional: bool = False,
    ) -> ModelTotals:
        """Aggregate time/energy of one model run (sweep fast path).

        The generic implementation materialises the full schedule and sums
        it; backends that can produce totals without building per-layer
        objects (the batched backend) override this.  Either way the
        numbers equal the :class:`~repro.core.metrics.ModelSchedule`
        property sums bit-for-bit.
        """
        scheduler = self.schedule_model_conventional if conventional else self.schedule_model
        schedule = scheduler(model, config, model_name=model_name)
        return ModelTotals(
            time_ns=schedule.total_time_ns, energy_nj=schedule.total_energy_nj
        )

    def schedule_suite_totals(
        self, models: list[WorkloadArgument], config: ArrayFlexConfig
    ) -> list[tuple[ModelTotals, ModelTotals]]:
        """(ArrayFlex, conventional) totals of each model on one configuration.

        What a design-space explorer scores per point.  Pairs
        :meth:`schedule_model_totals` calls per model; the batched backend
        overrides this to decide the whole suite in one pass, with the
        same numbers.
        """
        return [
            (
                self.schedule_model_totals(model, config),
                self.schedule_model_totals(model, config, conventional=True),
            )
            for model in models
        ]

    # ------------------------------------------------------------------ #
    # Conventional baseline (single fixed mode, shared closed form)
    # ------------------------------------------------------------------ #
    def schedule_layer_conventional(
        self, gemm: GemmShape, config: ArrayFlexConfig, index: int = 1
    ) -> LayerMetrics:
        """Schedule one GEMM on the fixed-pipeline baseline (always k = 1)."""
        parts = self.components(config)
        cycles = parts.latency.conventional_total_cycles(gemm)
        frequency = parts.clock.conventional_frequency_ghz()
        power, activity, utilization = parts.energy.conventional_layer_power(
            gemm, frequency
        )
        return LayerMetrics(
            index=index,
            gemm=gemm,
            collapse_depth=1,
            cycles=cycles,
            clock_frequency_ghz=frequency,
            execution_time_ns=parts.clock.conventional_execution_time_ns(cycles),
            activity=activity,
            array_utilization=utilization,
            power=power,
            analytical_depth=1.0,
        )

    def schedule_model_conventional(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
    ) -> ModelSchedule:
        """Schedule a whole model on the conventional baseline."""
        gemms, name = resolve_workload(model, model_name)
        schedule = ModelSchedule(
            model_name=name,
            accelerator="Conventional",
            rows=config.rows,
            cols=config.cols,
        )
        with get_tracer().span(
            "backend.schedule_model",
            backend=self.name,
            model=name,
            layers=len(gemms),
            conventional=True,
        ):
            for index, gemm in enumerate(gemms, start=1):
                schedule.layers.append(
                    self.schedule_layer_conventional(gemm, config, index=index)
                )
        return schedule

    # ------------------------------------------------------------------ #
    # Shared per-configuration model components
    # ------------------------------------------------------------------ #
    def components(self, config: ArrayFlexConfig) -> "_ConfigComponents":
        """Latency/clock/optimizer/energy models bound to one configuration.

        Building a :class:`ClockModel` resolves every operating point, so
        the bundles are memoised per configuration (keyed by
        :meth:`ArrayFlexConfig.cache_key`).  Backends are shared across
        :class:`~repro.serve.SchedulingService` threads, so the memo's
        get / move-to-end / evict sequence is lock-serialised; the
        returned bundle itself is read-only.
        """
        key = config.cache_key()
        with self._components_lock:
            parts = self._components.get(key)
            if parts is None:
                parts = _ConfigComponents(config)
                self._components[key] = parts
                while len(self._components) > self.MAX_COMPONENT_BUNDLES:
                    self._components.popitem(last=False)
            else:
                self._components.move_to_end(key)
            return parts


class _ConfigComponents:
    """The analytical model stack bound to one accelerator configuration."""

    __slots__ = ("config", "latency", "clock", "optimizer", "energy")

    def __init__(self, config: ArrayFlexConfig) -> None:
        self.config = config
        self.latency = LatencyModel(config)
        self.clock = ClockModel(config)
        self.optimizer = PipelineOptimizer(config)
        self.energy = EnergyModel(config)
