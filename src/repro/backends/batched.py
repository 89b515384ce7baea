"""Batched, memoised fast backend.

Two observations make model scheduling much cheaper than the per-layer
reference path without changing a single number:

* the Eq. (6) mode search needs only per-tile cycles and per-mode clock
  periods, so all layers of a model (and all supported depths) can be
  evaluated in one vectorised NumPy pass instead of a Python loop per
  layer per depth;
* CNNs repeat GEMM shapes heavily (every ResNet/ConvNeXt stage repeats
  its block, and design-space sweeps revisit the same workloads point
  after point), so decisions memoised by
  ``(GEMM dims, array geometry, mode set, activity model, technology)``
  are near-free on re-encounter.

:class:`BatchedCachedBackend` combines both behind the
:class:`~repro.backends.base.ExecutionBackend` interface.  It is the one
mode-search engine: its per-tile cycles come from one overridable method,
:meth:`BatchedCachedBackend._tile_cycles` (Eq. (3) here, measured lines on
:class:`~repro.backends.cycle_accurate.CycleAccurateBackend`).  Its results are
bit-identical to :class:`~repro.backends.analytical.AnalyticalBackend`:
the vectorised argmin replicates the sequential shallow-first tie-break
of :meth:`repro.core.optimizer.PipelineOptimizer.best_depth` (including
its 1e-12 tolerance), and the vectorised activity/power pass replicates,
operation for operation, the scalar
:meth:`~repro.timing.power_model.PowerModel` component arithmetic — per
layer, at the layer's effective activity, for every component of the
:class:`~repro.timing.power_model.ArrayPowerBreakdown`.
``tests/test_backends.py`` pins the parity down.

With a :class:`~repro.backends.store.DecisionStore` attached, the LRU is
additionally spilled to disk: every freshly solved decision goes to the
store, which buffers it until its shard's next merge (at the latest, when
the process exits or its owner closes), and memory misses consult the
store before falling back to the NumPy solve, so a new process (a rerun
design-space sweep, a pool worker) starts warm.  The store's shards
are memory-mapped columnar arrays read through a zero-copy
:class:`~repro.backends.store.ShardView` — all pool workers share one
page-cache copy, and a stored row is only materialised into a
:class:`Decision` when this backend actually misses its in-memory LRU.
All cache bookkeeping is serialised on an internal lock, which makes one
backend instance safe to share across the threads of
:class:`~repro.serve.SchedulingService`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable

import numpy as np

from repro.backends.base import ExecutionBackend, ModelTotals
from repro.backends.decisions import (
    Decision,
    decision_from_row,
    decision_to_layer,
    decision_to_row,
)
from repro.backends.store import DecisionStore
from repro.core.activity import tiling_utilization_vector
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import (
    LayerMetrics,
    ModelSchedule,
    WorkloadArgument,
    resolve_workload,
)
from repro.nn.gemm_mapping import GemmShape
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.timing.area_model import AreaModel
from repro.timing.power_model import ArrayPowerBreakdown, PowerModel

#: Tie-break tolerance of the discrete mode search (same constant as
#: :meth:`PipelineOptimizer.best_depth`).
_TIE_EPS = 1e-12

#: Largest count the engine's int64 arithmetic holds.
_INT64_MAX = np.iinfo(np.int64).max


def _ceil_div(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    return -(-a // b)


def _layer_cycles(
    gemms: list[GemmShape],
    config: ArrayFlexConfig,
    per_tile_cycles: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(m, n, t, cycles)`` layer vectors: per-tile cycles x Eq. (4) tiles.

    ``per_tile_cycles(t)`` gives the (layers, modes) per-tile cycles.
    NumPy's int64 arithmetic wraps silently, so a layer whose dimensions
    or counts do not fit int64 is refused with a :class:`ValueError`
    naming it.  The tile plane (tiles x R x C, which bounds the
    utilization's N x M) is held to the same bound.
    """
    rows, cols = config.rows, config.cols
    try:
        m = np.array([g.m for g in gemms], dtype=np.int64)
        n = np.array([g.n for g in gemms], dtype=np.int64)
        t = np.array([g.t for g in gemms], dtype=np.int64)
        row_tiles, col_tiles = _ceil_div(n, rows), _ceil_div(m, cols)
        pes = np.int64(rows * cols)
        per_tile = per_tile_cycles(t)
    except OverflowError:  # a dimension, or the geometry itself
        too_large = [max(g.m, g.n, g.t) > _INT64_MAX for g in gemms]
        raise _overflow(gemms, config, too_large) from None
    tiles = row_tiles * col_tiles
    cycles = per_tile * tiles[:, None]
    # Every product here is at most ``bound`` (exact Python ints), and a
    # wrapped per-tile count (T plus fill and drain) comes out negative.
    # Only then are the layers checked one by one: every operand is
    # positive, so a wrapped product does not divide back into its factor.
    bound = int(row_tiles.max()) * int(col_tiles.max()) * max(int(per_tile.max()), int(pes))
    if bound > _INT64_MAX or per_tile.min() < 1:
        wrapped = (
            (tiles // row_tiles != col_tiles)
            | (tiles * pes // np.maximum(tiles, 1) != pes)
            | (per_tile < t[:, None]).any(axis=1)
            | (cycles // np.maximum(per_tile, 1) != tiles[:, None]).any(axis=1)
        )
        if wrapped.any():
            raise _overflow(gemms, config, wrapped)
    return m, n, t, cycles


def _overflow(gemms: list[GemmShape], config: ArrayFlexConfig, wrapped) -> ValueError:
    """The refusal of the first ``wrapped`` layer (the first layer if none)."""
    gemm = gemms[int(np.argmax(wrapped))]
    return ValueError(
        f"layer {gemm} on a {config.rows}x{config.cols} array: a dimension or "
        f"cycle count does not fit int64"
    )


def _conventional_cycles(
    gemms: list[GemmShape], config: ArrayFlexConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq. (2) over layer vectors: per-tile Eq. (1) cycles x tile count.

    The scalar reference lives in
    :func:`repro.core.latency.conventional_total_cycles`; this is its only
    vectorised restatement, shared by every conventional-path call site of
    this backend, and the parity tests pin the two against each other.
    Returns ``(m, n, t, cycles)`` like :func:`_layer_cycles`.
    """
    rows, cols = config.rows, config.cols
    m, n, t, cycles = _layer_cycles(
        gemms, config, lambda t: (2 * rows + cols + t - 2)[:, None]
    )
    return m, n, t, cycles[:, 0]


def _effective_activity_vector(
    config: ArrayFlexConfig, m: np.ndarray, n: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Per-layer effective activities, mirroring ``EnergyModel.layer_activity``.

    Same composition (``config.activity * model factor``), same IEEE
    operations per element as the scalar path — including the scalar
    path's ``PowerModel._check_activity`` range validation, so a custom
    activity model that emits an out-of-range (or NaN) factor fails here
    exactly like it would on the analytical backend, instead of caching
    and persisting garbage power numbers.
    """
    activity = config.activity * config.activity_model.activity_vector(
        m, n, t, config.rows, config.cols
    )
    if not bool(((activity >= 0.0) & (activity <= 1.0)).all()):
        raise ValueError(
            f"activity must be within [0, 1] for every layer; "
            f"{type(config.activity_model).__name__} produced values outside"
        )
    return activity


def _arrayflex_power_vectors(
    config: ArrayFlexConfig,
    activity: np.ndarray,
    depth: np.ndarray,
    frequency: np.ndarray,
    leakage_mw: float,
) -> dict[str, np.ndarray]:
    """Vectorised restatement of ``PowerModel.arrayflex_array_power_breakdown``.

    Every line mirrors the scalar :meth:`PowerModel.arrayflex_pe_energy` /
    :meth:`PowerModel._array_breakdown` arithmetic operation for
    operation (same association, same order), so each per-layer component
    — and the total — is bit-identical to the analytical reference at
    that layer's activity.  The parity property-tests enforce this.
    """
    tech = config.technology
    num_pes = config.rows * config.cols
    k = depth

    multiplier = tech.e_mul_pj * activity
    carry_save = tech.e_csa_pj * activity
    muxes = PowerModel.MUXES_PER_PE * tech.e_mux_pj * activity
    carry_propagate = tech.e_add_pj * activity / k
    register_data = (
        tech.e_reg_bit_pj
        * (tech.input_width + tech.accum_width)
        * activity
        / k
    )
    clocked_bits = (
        tech.input_width
        + (tech.input_width + tech.accum_width) / k
        + AreaModel.CONFIG_BITS
    )
    register_clock = tech.e_clk_bit_pj * clocked_bits

    pe_total = (
        multiplier
        + carry_propagate
        + carry_save
        + muxes
        + register_data
        + register_clock
    )
    dynamic = pe_total * frequency
    return {
        "multiplier": num_pes * (multiplier * frequency),
        "carry_propagate_adder": num_pes * (carry_propagate * frequency),
        "carry_save_adder": num_pes * (carry_save * frequency),
        "bypass_muxes": num_pes * (muxes * frequency),
        "register_data": num_pes * (register_data * frequency),
        "register_clock": num_pes * (register_clock * frequency),
        "leakage": np.full(len(activity), num_pes * leakage_mw),
        "total_mw": num_pes * (dynamic + leakage_mw),
    }


def _conventional_power_vectors(
    config: ArrayFlexConfig,
    activity: np.ndarray,
    frequency: float,
    leakage_mw: float,
) -> dict[str, np.ndarray]:
    """Vectorised ``PowerModel.conventional_array_power_breakdown``.

    Mirrors :meth:`PowerModel.conventional_pe_energy` operation for
    operation, per layer at that layer's activity.
    """
    tech = config.technology
    num_pes = config.rows * config.cols
    data_bits = tech.input_width + tech.accum_width
    clocked_bits = 2 * tech.input_width + tech.accum_width

    multiplier = tech.e_mul_pj * activity
    carry_propagate = tech.e_add_pj * activity
    zero = np.zeros(len(activity))
    register_data = tech.e_reg_bit_pj * data_bits * activity
    register_clock = tech.e_clk_bit_pj * clocked_bits  # scalar: activity-free

    pe_total = (
        multiplier + carry_propagate + 0.0 + 0.0 + register_data + register_clock
    )
    dynamic = pe_total * frequency
    return {
        "multiplier": num_pes * (multiplier * frequency),
        "carry_propagate_adder": num_pes * (carry_propagate * frequency),
        "carry_save_adder": zero,
        "bypass_muxes": zero,
        "register_data": num_pes * (register_data * frequency),
        "register_clock": np.full(
            len(activity), num_pes * (register_clock * frequency)
        ),
        "leakage": np.full(len(activity), num_pes * leakage_mw),
        "total_mw": num_pes * (dynamic + leakage_mw),
    }


def _accumulate(layers: Iterable[tuple[float, float]]) -> ModelTotals:
    """Totals of per-layer ``(power_mw, time_ns)`` pairs, summed in layer order.

    The same left-to-right accumulation as the ``ModelSchedule`` property
    sums, so every totals path of this backend is bit-identical to them.
    """
    time_ns = 0.0
    energy_nj = 0.0
    for power, layer_time in layers:
        time_ns += layer_time
        energy_nj += power * layer_time / 1000.0
    return ModelTotals(time_ns=time_ns, energy_nj=energy_nj)


def _breakdown_at(power: dict[str, np.ndarray], i: int) -> ArrayPowerBreakdown:
    """The i-th layer's :class:`ArrayPowerBreakdown` from component vectors."""
    return ArrayPowerBreakdown(
        multiplier=float(power["multiplier"][i]),
        carry_propagate_adder=float(power["carry_propagate_adder"][i]),
        carry_save_adder=float(power["carry_save_adder"][i]),
        bypass_muxes=float(power["bypass_muxes"][i]),
        register_data=float(power["register_data"][i]),
        register_clock=float(power["register_clock"][i]),
        leakage=float(power["leakage"][i]),
        total_mw=float(power["total_mw"][i]),
    )


class BatchedCachedBackend(ExecutionBackend):
    """Vectorised mode optimisation with an LRU decision cache."""

    name = "batched"

    def __init__(self, cache_size: int = 65536, store: DecisionStore | None = None) -> None:
        super().__init__()
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.cache_size = cache_size
        #: Optional disk persistence layer; see :mod:`repro.backends.store`.
        self.store = store
        self._cache: OrderedDict[tuple, Decision] = OrderedDict()
        #: The cache counters live as instruments on this registry (the
        #: serving layer attaches it to its own, so ``/metrics`` reads
        #: them merged); ``cache_info()`` keeps the historical dict shape.
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("backend_cache_hits_total", backend=self.name)
        self._misses = self.metrics.counter(
            "backend_cache_misses_total", backend=self.name
        )
        self._store_hits = self.metrics.counter(
            "backend_cache_store_hits_total", backend=self.name
        )
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Pickling (the cache lock cannot cross process boundaries)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule_layer(
        self, gemm: GemmShape, config: ArrayFlexConfig, index: int = 1
    ) -> LayerMetrics:
        decision = self._decide_batch([gemm], config)[0]
        return self._to_layer(index, gemm, decision)

    def schedule_model(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
    ) -> ModelSchedule:
        gemms, name = resolve_workload(model, model_name)
        with get_tracer().span(
            "backend.schedule_model", backend=self.name, model=name, layers=len(gemms)
        ):
            decisions = self._decide_batch(gemms, config)
            schedule = ModelSchedule(
                model_name=name,
                accelerator="ArrayFlex",
                rows=config.rows,
                cols=config.cols,
            )
            for index, (gemm, decision) in enumerate(zip(gemms, decisions), start=1):
                schedule.layers.append(self._to_layer(index, gemm, decision))
        return schedule

    def schedule_model_conventional(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
    ) -> ModelSchedule:
        """Baseline schedule with the mode-independent constants hoisted out.

        The single fixed mode needs no mode search: Eq. (1)/(2) are
        evaluated for all layers in one NumPy pass (bit-identical to the
        per-layer closed form — int64 cycles are exact and the int * float
        time product is the same IEEE double either way), the clock lookup
        is computed once, and the per-layer activity/power breakdown comes
        from the vectorised power pass (bit-identical to the scalar
        component arithmetic per layer).
        """
        gemms, name = resolve_workload(model, model_name)
        span = get_tracer().span(
            "backend.schedule_model",
            backend=self.name,
            model=name,
            layers=len(gemms),
            conventional=True,
        )
        with span:
            return self._schedule_conventional(gemms, name, config)

    def _schedule_conventional(
        self, gemms: list[GemmShape], name: str, config: ArrayFlexConfig
    ) -> ModelSchedule:
        parts = self.components(config)
        rows, cols = config.rows, config.cols
        period_ns = parts.clock.conventional_period_ns()
        frequency = parts.clock.conventional_frequency_ghz()

        m, n, t, cycles = _conventional_cycles(gemms, config)
        times_ns = cycles * period_ns
        activity = _effective_activity_vector(config, m, n, t)
        utilization = tiling_utilization_vector(m, n, rows, cols)
        power = _conventional_power_vectors(
            config,
            activity,
            frequency,
            parts.energy.power_model.conventional_pe_leakage_mw(),
        )

        schedule = ModelSchedule(
            model_name=name,
            accelerator="Conventional",
            rows=config.rows,
            cols=config.cols,
        )
        for index in range(1, len(gemms) + 1):
            i = index - 1
            schedule.layers.append(
                LayerMetrics(
                    index=index,
                    gemm=gemms[i],
                    collapse_depth=1,
                    cycles=int(cycles[i]),
                    clock_frequency_ghz=frequency,
                    execution_time_ns=float(times_ns[i]),
                    activity=float(activity[i]),
                    array_utilization=float(utilization[i]),
                    power=_breakdown_at(power, i),
                    analytical_depth=1.0,
                )
            )
        return schedule

    def schedule_model_totals(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
        conventional: bool = False,
    ) -> ModelTotals:
        """Totals without materialising per-layer schedule objects.

        Sweeps aggregate nothing but total time and energy, so this skips
        the :class:`~repro.core.metrics.LayerMetrics` construction
        entirely and accumulates the same per-layer terms in the same
        left-to-right order as the ``ModelSchedule`` property sums — the
        numbers are bit-identical, only cheaper to produce.  The
        conventional branch prices every layer through the vectorised
        activity/power pass, so it too matches the per-layer path under
        any activity model.
        """
        gemms, name = resolve_workload(model, model_name)
        span = get_tracer().span(
            "backend.model_totals",
            backend=self.name,
            model=name,
            layers=len(gemms),
            conventional=conventional,
        )
        with span:
            return self._totals(gemms, config, conventional)

    def schedule_suite_totals(
        self, models: list[WorkloadArgument], config: ArrayFlexConfig
    ) -> list[tuple[ModelTotals, ModelTotals]]:
        """(ArrayFlex, conventional) totals of every model on one configuration.

        A design point of a sweep scores a whole workload suite, so the
        ArrayFlex decisions of all its models come from one
        :meth:`_decide_batch` over their concatenated GEMMs: one cache and
        store pass, one mode search and at most one store merge per
        configuration, instead of one of each per model.  Each model's
        slice is then summed in layer order, so every pair equals its
        :meth:`schedule_model_totals` counterparts bit for bit.
        """
        resolved = [resolve_workload(model)[0] for model in models]
        suite = [gemm for gemms in resolved for gemm in gemms]
        span = get_tracer().span(
            "backend.suite_totals", backend=self.name, models=len(resolved), layers=len(suite)
        )
        with span:
            decisions = self._decide_batch(suite, config)
            pairs = []
            start = 0
            for gemms in resolved:
                own = decisions[start : start + len(gemms)]
                start += len(gemms)
                arrayflex = _accumulate((d.power_mw, d.execution_time_ns) for d in own)
                pairs.append((arrayflex, self._totals(gemms, config, conventional=True)))
        return pairs

    def _totals(
        self, gemms: list[GemmShape], config: ArrayFlexConfig, conventional: bool
    ) -> ModelTotals:
        if conventional:
            parts = self.components(config)
            period_ns = parts.clock.conventional_period_ns()
            frequency = parts.clock.conventional_frequency_ghz()
            m, n, t, cycles = _conventional_cycles(gemms, config)
            activity = _effective_activity_vector(config, m, n, t)
            powers = _conventional_power_vectors(
                config,
                activity,
                frequency,
                parts.energy.power_model.conventional_pe_leakage_mw(),
            )["total_mw"]
            return _accumulate(zip(powers.tolist(), (cycles * period_ns).tolist()))
        return _accumulate(
            (d.power_mw, d.execution_time_ns) for d in self._decide_batch(gemms, config)
        )

    # ------------------------------------------------------------------ #
    # Cache bookkeeping
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the decision cache.

        ``store_hits`` counts memory misses that were answered from the
        attached :class:`~repro.backends.store.DecisionStore` instead of
        being re-derived; ``misses`` counts lookups that fell through to
        the NumPy solve pass — per GEMM occurrence, so duplicate shapes
        in one cold batch each count even though they share one solve.
        """
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "store_hits": self._store_hits.value,
            "size": len(self._cache),
            "max_size": self.cache_size,
        }

    def cache_clear(self) -> None:
        """Drop the in-memory cache and counters (the disk store persists)."""
        with self._lock:
            self._cache.clear()
            self._hits.reset()
            self._misses.reset()
            self._store_hits.reset()

    @staticmethod
    def _config_key(config: ArrayFlexConfig) -> tuple:
        return config.cache_key()

    # ------------------------------------------------------------------ #
    # The vectorised decision pass
    # ------------------------------------------------------------------ #
    def _decide_batch(
        self, gemms: list[GemmShape], config: ArrayFlexConfig
    ) -> list[Decision]:
        """Decisions for a batch of GEMMs: cache/store lookups + one NumPy pass.

        The lock guards only the cache bookkeeping; the NumPy solve and
        all store disk I/O run outside it, so service threads overlap
        their real work.  Two threads racing on the same cold keys at
        worst both solve them — identical numbers, last write wins.
        """
        config_key = self._config_key(config)
        # Disk I/O before taking the backend lock (the store has its own).
        stored = self.store.load(config_key) if self.store is not None else None
        keys = [(gemm.m, gemm.n, gemm.t, config_key) for gemm in gemms]
        decisions: list[Decision | None] = [None] * len(gemms)
        missing: list[int] = []
        unique_keys: dict[tuple, int] = {}
        unique_gemms: list[GemmShape] = []
        hits = store_hits = 0
        with self._lock:
            for i, (gemm, key) in enumerate(zip(gemms, keys)):
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    hits += 1
                    decisions[i] = cached
                    continue
                if stored is not None:
                    row = stored.get(DecisionStore.gemm_key(gemm.m, gemm.n, gemm.t))
                    if row is not None:
                        cached = decision_from_row(row)
                        self._cache[key] = cached
                        store_hits += 1
                        decisions[i] = cached
                        continue
                missing.append(i)
                if key not in unique_keys:
                    unique_keys[key] = len(unique_gemms)
                    unique_gemms.append(gemm)
            # One counter update per batch, not one lock round-trip per GEMM.
            self._hits.inc(hits)
            self._store_hits.inc(store_hits)
            self._misses.inc(len(missing))
            # Store hits insert too: enforce the cap on every path.
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

        if missing:
            with get_tracer().span(
                "backend.mode_search", backend=self.name, layers=len(unique_gemms)
            ):
                fresh = self._solve_vectorised(unique_gemms, config)
            if self.store is not None:
                self.store.put_many(
                    config_key,
                    {
                        DecisionStore.gemm_key(g.m, g.n, g.t): decision_to_row(d)
                        for g, d in zip(unique_gemms, fresh)
                    },
                )
            with self._lock:
                for key, position in unique_keys.items():
                    self._cache[key] = fresh[position]
                for i in missing:
                    # From `fresh`, not the cache: a concurrent batch may
                    # have evicted the entry already.
                    decisions[i] = fresh[unique_keys[keys[i]]]
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return decisions  # type: ignore[return-value]

    def _solve_vectorised(
        self, gemms: list[GemmShape], config: ArrayFlexConfig
    ) -> list[Decision]:
        """One NumPy pass of the Eq. (6) mode search over many layers.

        Cycles come from :meth:`_tile_cycles`, so the modes follow
        whichever cycle source the backend has.  Shapes: ``times`` is
        (layers, depths); the column scan below is the exact vector
        analogue of the sequential shallow-first tie-break in
        ``PipelineOptimizer.best_depth``.  Once the modes are
        chosen, one vectorised activity/power pass prices every layer at
        its own effective activity (utilization-aware when the configured
        activity model is) — the batched counterpart of
        ``EnergyModel.arrayflex_layer_power``.
        """
        parts = self.components(config)
        rows, cols = config.rows, config.cols
        depths = config.sorted_depths()

        # Per-tile cycles x Eq. (4) tile count, every layer at every depth.
        m, n, t, cycles = _layer_cycles(
            gemms,
            config,
            lambda t: np.stack([self._tile_cycles(config, d, t) for d in depths], axis=1),
        )

        # Eq. (6): absolute time under each mode's discrete operating point.
        periods_ns = np.array([parts.clock.period_ns(d) for d in depths])
        frequencies = np.array([parts.clock.frequency_ghz(d) for d in depths])
        times = cycles * periods_ns[None, :]

        # Shallow-first argmin with the optimizer's strict-improvement rule.
        best_col = np.zeros(len(gemms), dtype=np.int64)
        best_time = times[:, 0].copy()
        for j in range(1, len(depths)):
            better = times[:, j] < best_time - _TIE_EPS
            best_col[better] = j
            best_time[better] = times[better, j]

        layer_index = np.arange(len(gemms))
        best_cycles = cycles[layer_index, best_col]
        best_depths = np.array(depths, dtype=np.int64)[best_col]
        best_frequencies = frequencies[best_col]

        # The vectorised activity-aware power pass, at the chosen modes.
        activity = _effective_activity_vector(config, m, n, t)
        utilization = tiling_utilization_vector(m, n, rows, cols)
        power = _arrayflex_power_vectors(
            config,
            activity,
            best_depths,
            best_frequencies,
            parts.energy.power_model.arrayflex_pe_leakage_mw(),
        )
        return [
            Decision(
                collapse_depth=depths[best_col[i]],
                cycles=int(best_cycles[i]),
                clock_frequency_ghz=float(best_frequencies[i]),
                execution_time_ns=float(best_time[i]),
                # Eq. (7) lives in one place: the optimizer's closed form.
                analytical_depth=parts.optimizer.analytical_optimal_depth(gemms[i]),
                activity=float(activity[i]),
                array_utilization=float(utilization[i]),
                power=_breakdown_at(power, i),
            )
            for i in range(len(gemms))
        ]

    def _tile_cycles(
        self, config: ArrayFlexConfig, depth: int, t: np.ndarray
    ) -> np.ndarray:
        """Cycles of one full tile at ``depth`` for each streamed depth in ``t``.

        The one cycle source of the mode search: Eq. (3) here; the cycle
        backend overrides it with its measured lines.
        """
        rows, cols = config.rows, config.cols
        return rows + _ceil_div(rows, depth) + _ceil_div(cols, depth) + t - 2

    # ------------------------------------------------------------------ #
    @staticmethod
    def _to_layer(index: int, gemm: GemmShape, decision: Decision) -> LayerMetrics:
        return decision_to_layer(index, gemm, decision)
