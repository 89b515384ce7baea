"""Calibrated sampled-simulation backend.

:class:`~repro.backends.cycle_accurate.CycleAccurateBackend` measures
one full-array tile per mode and scales it by the tile count.
:class:`SampledSimBackend` instead *measures* cycles on the
cycle-accurate engine for a small, deterministic, seeded sample of each
layer's whole tile population, edge tiles included, and extrapolates to
the full layer with an explicit statistical error bound.

How one layer is estimated
--------------------------

1. **Enumerate the tile population.**  The layer's GEMM is decomposed by
   :class:`repro.sim.tiling.TilingPlan` into ``ceil(N/R) x ceil(M/C)``
   tiles, grouped into *strata* by distinct tile shape ``(N', M')`` — the
   full interior tiles plus up to three partially-filled edge/corner
   shapes.
2. **Stratified sampling with Neyman allocation.**  The layer's tile
   budget is ``sum_s min(P_s, max(min_tiles_per_shape, ceil(
   sample_fraction * P_s)))`` — the same total as uniform per-stratum
   allocation.  It is spent in two phases: a small seeded *pilot* of
   ``min(P_s, max(2, min_tiles_per_shape))`` tiles per stratum
   estimates each stratum's cycle variance, then the remaining budget is
   split across non-exhaustive strata in proportion to
   ``P_s * sqrt(var_s)`` (the Neyman-optimal split, largest-remainder
   rounded, clamped to each population).  When the pilot variances are
   all equal — including the all-zero case this engine's
   data-independent timing produces — the allocation degenerates to
   exactly the uniform per-stratum sizes, so the exact-engine numbers
   are unchanged by the two-phase machinery.  Sampled tile operands are
   synthesised from ``sample_seed`` and the sample index — the same
   synthetic-measurement convention as the cycle backend — which makes
   every measurement a pure function of ``(geometry, mode, T, tile
   shape, seed, index)`` and therefore reusable across layers and
   shareable through the memo.
3. **Calibrated streaming probes.**  Simulating a tile costs time
   proportional to its streamed dimension T.  For large T the backend
   calibrates each stratum's T-response once — three truncated probes
   (``max_probe_t``, 1.5x and 2x that) that must be exactly collinear
   with an integer slope, because the hardware's tile latency is affine
   in T (Eqs. (1)/(3)); a non-affine measurement *fails loudly* instead
   of extrapolating a wrong model.  Each sampled tile is then measured
   at the base probe length only and extrapolated with the calibrated
   slope.  All measurements — probes and samples alike — run through
   the batched :meth:`~repro.sim.systolic_sim
   .CycleAccurateSystolicArray.simulate_tiles` engine path, grouped
   across strata per streamed depth, and every simulation verifies the
   functional product against NumPy.
4. **Extrapolate with an error bound.**  The layer estimate is the
   stratified-sampling estimator ``sum_s P_s * mean_s`` and the reported
   :attr:`~repro.core.metrics.LayerMetrics.error_bound` is the relative
   half-width of its normal-theory confidence interval, with finite
   population correction:  ``z * sqrt(sum_s P_s^2 (1 - n_s/P_s) var_s /
   n_s) / estimate``.  Exhaustively sampled layers (fewer tiles than the
   sample size, or ``sample_fraction=1.0``) degenerate to exact cycle
   measurement and report ``error_bound == 0.0`` — and are bit-identical
   to the cycle backend.  In this simulator per-tile cycle counts are
   content-independent (the control path never looks at data), so
   observed variances are zero and the estimates are exact in practice;
   the variance machinery is what *detects* it rather than assumes it,
   and keeps the bound honest if the engine ever grows data-dependent
   timing.

``error_target`` switches on auto-calibration: after the initial
allocation the per-stratum samples keep doubling (deterministically —
growing a sample extends the same seeded sequence) until the estimated
relative error falls below the target or the sample is exhaustive.
Cycles measured in earlier rounds are kept within the call, so each
doubling round only simulates the *new* sample indices.

Mode selection still uses the Eq. (6) discrete search and the power/time
figures still come from the shared operating-point and energy models —
exactly like the cycle backend — so the only estimated quantity is the
cycle count, and the ``error_bound`` applies verbatim to the derived
time/energy figures.

Decisions are memoised in an LRU and optionally spilled to a
:class:`~repro.backends.store.DecisionStore`; the store shard key and the
:class:`~repro.serve.SchedulingService` dedup key both fold in
:meth:`decision_identity` (seed, fraction, sample sizes, probe cap), so a
row written under one seed/fraction can never be served for another.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.backends.base import ExecutionBackend, LayerResult, ModelTotals
from repro.backends.cycle_accurate import affine_fit
from repro.backends.decisions import (
    Decision,
    decision_from_row,
    decision_to_layer,
    decision_to_row,
)
from repro.backends.store import DecisionStore
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import WorkloadArgument, resolve_workload
from repro.nn.gemm_mapping import GemmShape
from repro.nn.workloads import random_int_matrices
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.sim.systolic_sim import CycleAccurateSystolicArray
from repro.sim.tiling import TilingPlan


@dataclass(frozen=True)
class StratumEstimate:
    """Sampling outcome of one tile-shape stratum of one layer."""

    n_size: int
    m_size: int
    population: int
    sampled: int
    mean_cycles: float
    cycle_variance: float

    @property
    def exhaustive(self) -> bool:
        return self.sampled >= self.population


@dataclass(frozen=True)
class LayerCycleEstimate:
    """Extrapolated cycle count of one layer, with its uncertainty.

    ``error_bound`` is relative: the estimator guarantees
    ``|cycles - exact| <= error_bound * exact`` at the configured
    confidence level (exactly, not just in expectation, whenever the
    per-stratum variance is zero — which the engine's data-independent
    timing makes the observed case).
    """

    cycles: int
    error_bound: float
    exhaustive: bool
    simulated_tiles: int
    total_tiles: int
    strata: tuple[StratumEstimate, ...]


class SampledSimBackend(ExecutionBackend):
    """Cycle-level estimates from a seeded stratified sample of tiles."""

    name = "sampled"

    #: Bound on memoised per-tile measurements (LRU-evicted beyond this).
    MAX_TILE_MEASUREMENTS = 8192
    #: Normal-theory confidence multiplier of the reported error bound
    #: (1.96 = the conventional 95% interval).
    CONFIDENCE_Z = 1.96

    def __init__(
        self,
        sample_fraction: float = 0.05,
        min_tiles_per_shape: int = 2,
        sample_seed: int = 0,
        error_target: float | None = None,
        max_probe_t: int | None = 32,
        cache_size: int = 65536,
        store: DecisionStore | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if min_tiles_per_shape < 1:
            raise ValueError("min_tiles_per_shape must be at least 1")
        if sample_seed < 0:
            raise ValueError("sample_seed must be non-negative")
        if error_target is not None and error_target < 0.0:
            raise ValueError("error_target must be non-negative (or None)")
        if max_probe_t is not None and max_probe_t < 2:
            raise ValueError("max_probe_t must be at least 2 (or None to disable)")
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.sample_fraction = sample_fraction
        self.min_tiles_per_shape = min_tiles_per_shape
        self.sample_seed = sample_seed
        #: Auto-calibration target: keep growing the sample until the
        #: estimated relative error is at most this (None: fixed sample).
        self.error_target = error_target
        #: Streamed-dimension probe cap: layers with T > 2x this are
        #: measured through three truncated probes and a verified affine
        #: extrapolation along T.  None simulates every tile at full T.
        self.max_probe_t = max_probe_t
        self.cache_size = cache_size
        #: Optional disk persistence layer; see :mod:`repro.backends.store`.
        self.store = store
        self._cache: OrderedDict[tuple, Decision] = OrderedDict()
        #: The cache counters as registry instruments (same surface as
        #: the batched backend; the serving layer attaches this registry).
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("backend_cache_hits_total", backend=self.name)
        self._misses = self.metrics.counter(
            "backend_cache_misses_total", backend=self.name
        )
        self._store_hits = self.metrics.counter(
            "backend_cache_store_hits_total", backend=self.name
        )
        self._lock = threading.RLock()
        self._tile_cycles: OrderedDict[tuple, int] = OrderedDict()
        self._measure_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Pickling (locks cannot cross process boundaries)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_lock", None)
        state.pop("_measure_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._lock = threading.RLock()
        self._measure_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Identity (dedup / store keying)
    # ------------------------------------------------------------------ #
    def decision_identity(self) -> tuple:
        """Sampling parameters that change this backend's numbers.

        Folded into serving dedup keys and into every store shard key
        (see :meth:`store_config_key`): the same workload estimated under
        a different seed, fraction, sample floor, probe cap or error
        target is a different computation, never a shared one.
        """
        return (
            self.name,
            self.sample_seed,
            self.sample_fraction,
            self.min_tiles_per_shape,
            self.error_target,
            self.max_probe_t,
        )

    def store_config_key(self, config: ArrayFlexConfig) -> tuple:
        """The :class:`DecisionStore` shard key of one configuration.

        The configuration's own ``cache_key`` plus
        :meth:`decision_identity`, so sampled rows can never collide with
        the batched backend's rows for the same configuration, nor with
        sampled rows produced under different sampling parameters.
        """
        return (*config.cache_key(), self.decision_identity())

    # ------------------------------------------------------------------ #
    # Protocol implementation
    # ------------------------------------------------------------------ #
    def schedule_layer(
        self, gemm: GemmShape, config: ArrayFlexConfig, index: int = 1
    ) -> LayerResult:
        return decision_to_layer(index, gemm, self._decide(gemm, config))

    def _decide(self, gemm: GemmShape, config: ArrayFlexConfig) -> Decision:
        """One cached (LRU -> store -> estimate) mode decision."""
        config_key = self.store_config_key(config)
        key = (gemm.m, gemm.n, gemm.t, config_key)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits.inc()
                return cached
        if self.store is not None:
            row = self.store.get(config_key, gemm.m, gemm.n, gemm.t)
            if row is not None:
                decision = decision_from_row(row)
                self._remember(key, decision, from_store=True)
                return decision
        decision = self._solve(gemm, config)
        if self.store is not None:
            # Buffered append: one layer is one row, so writing through
            # DecisionStore.put batches a whole model's worth of fresh
            # decisions into a single shard merge (flushed at the store's
            # row threshold and at every model boundary below) instead of
            # a read-merge-replace cycle per layer.
            self.store.put(
                config_key,
                DecisionStore.gemm_key(gemm.m, gemm.n, gemm.t),
                decision_to_row(decision),
            )
        self._remember(key, decision, from_store=False)
        return decision

    def schedule_model(
        self,
        model,
        config: ArrayFlexConfig,
        model_name: str | None = None,
    ):
        """Schedule every layer, then flush buffered store rows to disk.

        The flush makes "a finished model run is persisted" hold for the
        buffered write path exactly like it did for the old
        write-per-decision path: a second process (or a rerun) starts warm
        from everything this schedule derived.
        """
        schedule = super().schedule_model(model, config, model_name=model_name)
        self.flush_store()
        return schedule

    def schedule_model_totals(
        self,
        model: WorkloadArgument,
        config: ArrayFlexConfig,
        model_name: str | None = None,
        conventional: bool = False,
    ) -> ModelTotals:
        """Totals without materialising per-layer schedule objects.

        Mirrors the batched backend's fast path: sweeps aggregate nothing
        but total time and energy, so this accumulates the cached
        per-layer decisions directly — same values, same left-to-right
        summation order as the :class:`~repro.core.metrics.ModelSchedule`
        property sums — and additionally carries a combined model-level
        ``error_bound``: the execution-time-weighted mean of the
        per-layer relative bounds, which bounds the relative error of the
        total time (each layer's time is within its own bound, so the
        total is within their time-weighted combination).  The
        conventional baseline involves no sampling, so it delegates to
        the generic exact path.
        """
        if conventional:
            return super().schedule_model_totals(
                model, config, model_name=model_name, conventional=True
            )
        gemms, name = resolve_workload(model, model_name)
        with get_tracer().span(
            "backend.model_totals",
            backend=self.name,
            model=name,
            layers=len(gemms),
        ):
            time_ns = 0.0
            energy_nj = 0.0
            weighted_bound = 0.0
            for gemm in gemms:
                decision = self._decide(gemm, config)
                layer_time = decision.execution_time_ns
                time_ns += layer_time
                energy_nj += decision.power_mw * layer_time / 1000.0
                weighted_bound += (decision.error_bound or 0.0) * layer_time
            self.flush_store()
        bound = weighted_bound / time_ns if time_ns > 0.0 else 0.0
        return ModelTotals(
            time_ns=time_ns, energy_nj=energy_nj, error_bound=bound
        )

    def _remember(self, key: tuple, decision: Decision, from_store: bool) -> None:
        with self._lock:
            if from_store:
                self._store_hits.inc()
            else:
                self._misses.inc()
            self._cache[key] = decision
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _solve(self, gemm: GemmShape, config: ArrayFlexConfig) -> Decision:
        """Estimate one layer: Eq. (6) mode policy + sampled measurement."""
        with get_tracer().span(
            "backend.solve_layer", backend=self.name, gemm=gemm.name or repr(gemm)
        ):
            return self._solve_traced(gemm, config)

    def _solve_traced(self, gemm: GemmShape, config: ArrayFlexConfig) -> Decision:
        parts = self.components(config)
        mode = parts.optimizer.best_depth(gemm)
        depth = mode.collapse_depth
        estimate = self.estimate_layer_cycles(config, gemm, depth)
        frequency = parts.clock.frequency_ghz(depth)
        power, activity, utilization = parts.energy.arrayflex_layer_power(
            gemm, depth, frequency
        )
        return Decision(
            collapse_depth=depth,
            cycles=estimate.cycles,
            clock_frequency_ghz=frequency,
            execution_time_ns=parts.clock.execution_time_ns(estimate.cycles, depth),
            analytical_depth=mode.analytical_depth,
            activity=activity,
            array_utilization=utilization,
            power=power,
            error_bound=estimate.error_bound,
        )

    # ------------------------------------------------------------------ #
    # The estimator
    # ------------------------------------------------------------------ #
    def layer_estimate(
        self, gemm: GemmShape, config: ArrayFlexConfig
    ) -> LayerCycleEstimate:
        """Uncached estimate of one layer at its Eq. (6) mode.

        Introspection/report entry point: exposes the per-stratum sample
        sizes, populations and variances behind a schedule's
        ``error_bound`` (the accuracy experiment and the test-suite's
        degenerate-case checks read these).
        """
        parts = self.components(config)
        depth = parts.optimizer.best_depth(gemm).collapse_depth
        return self.estimate_layer_cycles(config, gemm, depth)

    def estimate_layer_cycles(
        self, config: ArrayFlexConfig, gemm: GemmShape, collapse_depth: int
    ) -> LayerCycleEstimate:
        """Stratified sampled-simulation estimate of one layer's cycles.

        Measurement is batched: all strata of one round are measured at
        the same effective streamed depth, so their new sample indices go
        through the cycle engine in one batched call.  Cycles measured in
        earlier rounds (the pilot, earlier ``error_target`` doublings)
        are kept in a per-call table, so each round only simulates the
        extension of the seeded sequence.
        """
        plan = TilingPlan(
            n_dim=gemm.n, m_dim=gemm.m, rows=config.rows, cols=config.cols
        )
        populations = plan.shape_populations()
        # Deterministic stratum order (largest shapes first), independent
        # of tile execution order.
        shapes = sorted(populations, reverse=True)
        t_rows = gemm.t
        cap = self.max_probe_t
        capped = cap is not None and t_rows > 2 * cap
        slopes = (
            self._calibrate_slopes(config, collapse_depth, shapes)
            if capped
            else {}
        )
        base_t = cap if capped else t_rows

        measured: dict[tuple[int, int], list[int]] = {
            shape: [] for shape in shapes
        }

        def extend_to(targets: dict[tuple[int, int], int]) -> None:
            items: list[tuple[int, int, int]] = []
            owners: list[tuple[int, int]] = []
            for shape in shapes:
                for index in range(len(measured[shape]), targets[shape]):
                    items.append((shape[0], shape[1], index))
                    owners.append(shape)
            if not items:
                return
            for shape, cycles in zip(
                owners,
                self._simulate_batch(config, collapse_depth, base_t, items),
            ):
                if capped:
                    cycles += slopes[shape] * (t_rows - base_t)
                measured[shape].append(cycles)

        # Phase 1: the seeded pilot, enough to estimate each stratum's
        # variance; phase 2: Neyman split of the remaining budget.
        uniform = {
            shape: self._allocation(populations[shape]) for shape in shapes
        }
        pilots = {
            shape: min(
                uniform[shape],
                max(2, self.min_tiles_per_shape),
                populations[shape],
            )
            for shape in shapes
        }
        extend_to(pilots)
        variances = {
            shape: self._sample_variance(measured[shape][: pilots[shape]])
            for shape in shapes
        }
        sizes = self._neyman_allocation(
            shapes, populations, pilots, variances, sum(uniform.values())
        )
        while True:
            extend_to(sizes)
            strata = tuple(
                self._stratum_estimate(
                    shape,
                    populations[shape],
                    measured[shape][: sizes[shape]],
                )
                for shape in shapes
            )
            estimate = self._combine(plan.total_tiles, strata)
            if self.error_target is None or estimate.exhaustive:
                return estimate
            if estimate.error_bound <= self.error_target:
                return estimate
            # Auto mode: double every partial stratum's sample (extending
            # the same seeded sequence — deterministic) and re-estimate.
            for shape in shapes:
                if sizes[shape] < populations[shape]:
                    sizes[shape] = min(populations[shape], 2 * sizes[shape])

    def _allocation(self, population: int) -> int:
        """Uniform per-stratum sample size of the calibration knobs.

        Also the per-stratum term of the layer's total tile budget: the
        Neyman split redistributes the sum of these, it never changes it.
        """
        size = max(
            self.min_tiles_per_shape,
            math.ceil(self.sample_fraction * population),
        )
        size = min(population, size)
        if size < population:
            # A partial sample needs at least two observations for the
            # variance term of the error bound to be estimable.
            size = min(population, max(size, 2))
        return size

    def _neyman_allocation(
        self,
        shapes: list[tuple[int, int]],
        populations: dict[tuple[int, int], int],
        pilots: dict[tuple[int, int], int],
        variances: dict[tuple[int, int], float],
        budget: int,
    ) -> dict[tuple[int, int], int]:
        """Split the layer's tile budget across strata by pilot variance.

        The Neyman-optimal allocation puts sampling effort where it
        shrinks the bound fastest: in proportion to ``P_s * sqrt(var_s)``.
        The remaining budget (total minus pilots) is apportioned by
        largest remainder, clamped to each stratum's population, with any
        clamped-off surplus redistributed to strata that still have
        capacity (largest weight first) — all deterministic.

        Degenerate cases return the uniform :meth:`_allocation` sizes
        unchanged: every stratum exhaustive at its pilot, or all pilot
        variances equal (the observed case for this engine, whose timing
        is data-independent — so the exact-engine numbers never move).
        """
        partial = [
            shape for shape in shapes if pilots[shape] < populations[shape]
        ]
        uniform = {
            shape: self._allocation(populations[shape]) for shape in shapes
        }
        if not partial:
            return uniform
        if len({variances[shape] for shape in partial}) <= 1:
            return uniform
        weights = {
            shape: populations[shape] * math.sqrt(max(variances[shape], 0.0))
            for shape in partial
        }
        total_weight = sum(weights.values())
        if total_weight <= 0.0:
            return uniform
        remaining = budget - sum(pilots.values())
        shares = {
            shape: remaining * weights[shape] / total_weight
            for shape in partial
        }
        extras = {shape: math.floor(shares[shape]) for shape in partial}
        leftover = remaining - sum(extras.values())
        by_remainder = sorted(
            partial, key=lambda shape: (shares[shape] - extras[shape], shape),
            reverse=True,
        )
        for shape in by_remainder[:leftover]:
            extras[shape] += 1

        sizes = dict(pilots)
        overflow = 0
        for shape in partial:
            sizes[shape] = pilots[shape] + extras[shape]
            if sizes[shape] > populations[shape]:
                overflow += sizes[shape] - populations[shape]
                sizes[shape] = populations[shape]
        if overflow:
            by_weight = sorted(
                partial, key=lambda shape: (weights[shape], shape), reverse=True
            )
            for shape in by_weight:
                if overflow <= 0:
                    break
                capacity = populations[shape] - sizes[shape]
                grant = min(capacity, overflow)
                sizes[shape] += grant
                overflow -= grant
        return sizes

    @staticmethod
    def _sample_variance(cycles: list[int]) -> float:
        # A single observation carries no sampling error estimate
        # (exhaustive single-tile strata report zero variance).
        if len(cycles) <= 1:
            return 0.0
        mean = sum(cycles) / len(cycles)
        return sum((c - mean) ** 2 for c in cycles) / (len(cycles) - 1)

    def _stratum_estimate(
        self,
        shape: tuple[int, int],
        population: int,
        cycles: list[int],
    ) -> StratumEstimate:
        mean = sum(cycles) / len(cycles)
        variance = self._sample_variance(cycles)
        return StratumEstimate(
            n_size=shape[0],
            m_size=shape[1],
            population=population,
            sampled=len(cycles),
            mean_cycles=mean,
            cycle_variance=variance,
        )

    def _combine(
        self, total_tiles: int, strata: tuple[StratumEstimate, ...]
    ) -> LayerCycleEstimate:
        """Fold per-stratum samples into the layer estimate and its bound."""
        total = 0.0
        se_squared = 0.0
        simulated = 0
        exhaustive = True
        for stratum in strata:
            total += stratum.population * stratum.mean_cycles
            simulated += stratum.sampled
            if not stratum.exhaustive:
                exhaustive = False
                finite_population = 1.0 - stratum.sampled / stratum.population
                se_squared += (
                    stratum.population**2
                    * finite_population
                    * stratum.cycle_variance
                    / stratum.sampled
                )
        cycles = int(round(total))
        if exhaustive or total <= 0.0:
            bound = 0.0
        else:
            bound = self.CONFIDENCE_Z * math.sqrt(se_squared) / total
        return LayerCycleEstimate(
            cycles=cycles,
            error_bound=bound,
            exhaustive=exhaustive,
            simulated_tiles=simulated,
            total_tiles=total_tiles,
            strata=strata,
        )

    # ------------------------------------------------------------------ #
    # Tile measurement (calibrated streaming probes + memo)
    # ------------------------------------------------------------------ #
    def _calibrate_slopes(
        self,
        config: ArrayFlexConfig,
        collapse_depth: int,
        shapes: list[tuple[int, int]],
    ) -> dict[tuple[int, int], int]:
        """Cycles-per-streamed-row slope of every stratum, measured.

        Three probe simulations per stratum, batched *across strata* per
        probe depth (all strata's low probes run in one engine call, then
        all mid probes, then all high), each stratum's line checked by
        :func:`~repro.backends.cycle_accurate.affine_fit`.  Probe
        measurements share the memo, so re-calibrating a shape another
        layer already probed costs three memo lookups.
        """
        cap = self.max_probe_t
        low, mid, high = cap, cap + (cap + 1) // 2, 2 * cap
        with get_tracer().span(
            "sampled.calibrate",
            backend=self.name,
            tiles=len(shapes),
            depth=collapse_depth,
        ):
            probes = {
                t: self._simulate_batch(
                    config,
                    collapse_depth,
                    t,
                    [(n_size, m_size, 0) for n_size, m_size in shapes],
                )
                for t in (low, mid, high)
            }
        slopes: dict[tuple[int, int], int] = {}
        for position, (n_size, m_size) in enumerate(shapes):
            _, slopes[(n_size, m_size)] = affine_fit(
                (low, mid, high),
                tuple(probes[t][position] for t in (low, mid, high)),
                f"rows={config.rows}, cols={config.cols}, N'={n_size}, "
                f"M'={m_size}, k={collapse_depth}",
            )
        return slopes

    def _simulate_batch(
        self,
        config: ArrayFlexConfig,
        collapse_depth: int,
        t_rows: int,
        items: list[tuple[int, int, int]],
    ) -> list[int]:
        """Memoised cycle-engine runs of sampled tiles, batched.

        ``items`` holds ``(n_size, m_size, sample_index)`` triples that
        all stream the same depth; the returned cycle counts are in item
        order.  Memo misses — tiles of *different shapes* are fine, only
        T must agree — run through one batched
        :meth:`~repro.sim.systolic_sim.CycleAccurateSystolicArray
        .simulate_tiles` call per :meth:`max_batch_tiles` chunk, each
        verified against the NumPy product.

        The memo key deliberately omits the layer dimensions: a
        measurement is a pure function of the geometry, mode, streamed
        depth, tile shape and seeded sample index, so layers whose strata
        coincide (ubiquitous in CNN suites) share measurements — the same
        economics that make the cycle backend's per-mode calibration work.
        """
        keys = [
            (
                config.rows, config.cols, collapse_depth, t_rows, n_size,
                m_size, sample_index,
            )
            for n_size, m_size, sample_index in items
        ]
        cycles: dict[tuple, int] = {}
        with self._measure_lock:
            for key in keys:
                cached = self._tile_cycles.get(key)
                if cached is not None:
                    self._tile_cycles.move_to_end(key)
                    cycles[key] = cached
        todo: list[tuple[tuple, tuple[int, int, int]]] = []
        queued: set[tuple] = set()
        for key, item in zip(keys, items):
            if key not in cycles and key not in queued:
                queued.add(key)
                todo.append((key, item))
        if todo:
            array = CycleAccurateSystolicArray(
                rows=config.rows,
                cols=config.cols,
                collapse_depth=collapse_depth,
                configurable=True,
            )
            with get_tracer().span(
                "sampled.measure_batch",
                backend=self.name,
                t=t_rows,
                tiles=len(items),
                simulated=len(todo),
            ):
                chunk = array.max_batch_tiles(t_rows)
                for start in range(0, len(todo), chunk):
                    part = todo[start : start + chunk]
                    a_tiles = []
                    b_tiles = []
                    for _, (n_size, m_size, sample_index) in part:
                        a_tile, b_tile = random_int_matrices(
                            t_rows,
                            n_size,
                            m_size,
                            # Sequence seeds are deterministic across
                            # runs, threads and process pools; the sample
                            # index (not the tile coordinate) varies the
                            # operands, which is what keeps measurements
                            # shareable across layers.
                            seed=[
                                self.sample_seed, sample_index, t_rows,
                                n_size, m_size,
                            ],
                        )
                        a_tiles.append(a_tile)
                        b_tiles.append(b_tile)
                    results = array.simulate_tiles(a_tiles, b_tiles)
                    for (key, item), a_tile, b_tile, result in zip(
                        part, a_tiles, b_tiles, results
                    ):
                        if not np.array_equal(result.output, a_tile @ b_tile):
                            n_size, m_size, _ = item
                            raise RuntimeError(
                                f"sampled simulation produced a wrong product "
                                f"for tile (rows={config.rows}, "
                                f"cols={config.cols}, N'={n_size}, "
                                f"M'={m_size}, T={t_rows}, k={collapse_depth})"
                            )
                        cycles[key] = result.total_cycles
            with self._measure_lock:
                for key, _ in todo:
                    self._tile_cycles[key] = cycles[key]
                while len(self._tile_cycles) > self.MAX_TILE_MEASUREMENTS:
                    self._tile_cycles.popitem(last=False)
        return [cycles[key] for key in keys]

    # ------------------------------------------------------------------ #
    # Cache bookkeeping (same counters surface as the batched backend)
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the decision cache.

        ``store_hits`` counts memory misses answered from the attached
        :class:`~repro.backends.store.DecisionStore`; ``misses`` counts
        decisions that went through a fresh sampled estimate.
        """
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "store_hits": self._store_hits.value,
            "size": len(self._cache),
            "max_size": self.cache_size,
            "tile_measurements": len(self._tile_cycles),
        }

    def cache_clear(self) -> None:
        """Drop decisions, measurements and counters (the disk store persists)."""
        with self._lock:
            self._cache.clear()
            self._hits.reset()
            self._misses.reset()
            self._store_hits.reset()
        with self._measure_lock:
            self._tile_cycles.clear()
