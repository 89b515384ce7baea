"""Batched fast backend: the one mode-search engine.

The Eq. (6) mode search needs only per-tile cycles and per-mode clock
periods, so all layers of a model (and all supported depths) can be
evaluated in one vectorised NumPy pass instead of a Python loop per layer
per depth.  CNNs repeat GEMM shapes heavily (every ResNet/ConvNeXt stage
repeats its block), so a batch is deduplicated by ``(m, n, t)`` first and
each distinct shape is solved once.

:class:`BatchedCachedBackend` does both behind the
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

A sweep's design point is solved as columns.
:meth:`BatchedCachedBackend.schedule_suite_totals` solves each distinct
shape of the whole suite once (:meth:`BatchedCachedBackend._solve_columns`),
prices the conventional baseline once per shape, gathers both back to
layer order and sums each model in sequence; it builds no
:class:`Decision` and no :class:`ArrayPowerBreakdown`, because a sweep
reads two floats per layer.  The request path (``schedule_model``,
``schedule_model_totals``) still turns every layer's columns into a
:class:`Decision`.  The daemon's overhead gate
(``benchmarks/test_bench_daemon.py``) bounds an HTTP request as a ratio
to these direct calls, and a cheaper direct call alone pushed that ratio
past its ceiling, so that path changes only with the daemon's own cost.

The backend keeps no decisions in memory.  With a
:class:`~repro.backends.store.DecisionStore` attached, a batch's distinct
shapes are first read from the store, and only the rest are solved; every
freshly solved decision goes to the store, which buffers it until its
shard's next merge (at the latest, when the process exits or its owner
closes), so a new process (a rerun design-space sweep, a pool worker)
starts warm.  The store's shards are memory-mapped columnar arrays read
through a zero-copy :class:`~repro.backends.store.ShardView` — all pool
workers share one page-cache copy, and a stored row is materialised into
a :class:`Decision` only when a batch asks for its shape.  One backend
instance is safe to share across the threads of
:class:`~repro.serve.SchedulingService`: the store and the per-configuration
component memo carry their own locks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from repro.backends.base import ExecutionBackend, ModelTotals
from repro.backends.decisions import (
    ROW_POWER_MW,
    ROW_TIME_NS,
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
from repro.obs.trace import get_tracer
from repro.timing.area_model import AreaModel
from repro.timing.power_model import ArrayPowerBreakdown, PowerModel

#: Tie-break tolerance of the discrete mode search (same constant as
#: :meth:`PipelineOptimizer.best_depth`).
_TIE_EPS = 1e-12

#: Largest count the engine's int64 arithmetic holds.
_INT64_MAX = np.iinfo(np.int64).max

#: The :class:`ArrayPowerBreakdown` components, in :func:`decision_to_row` order.
_POWER_COMPONENTS = tuple(field.name for field in fields(ArrayPowerBreakdown))


class _Columns(NamedTuple):
    """One Eq. (6) mode search over distinct layer shapes, as columns.

    Entry ``i`` of each array is what the ``i``-th shape's
    :class:`Decision` holds, except Eq. (7)'s ``analytical_depth``, which
    only a materialised decision or a store row carries.
    """

    depth_index: np.ndarray  # position in ``config.sorted_depths()``
    cycles: np.ndarray
    frequency_ghz: np.ndarray
    time_ns: np.ndarray
    activity: np.ndarray
    utilization: np.ndarray
    power: dict[str, np.ndarray]  # component name -> per-shape mW


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
    """Vectorised mode optimisation, optionally backed by a decision store."""

    name = "batched"

    def __init__(self, store: DecisionStore | None = None) -> None:
        super().__init__()
        #: Optional disk persistence layer; see :mod:`repro.backends.store`.
        self.store = store

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
        frequency = self.components(config).clock.conventional_frequency_ghz()
        m, n, cycles, times_ns, activity, power = self._conventional_columns(gemms, config)
        utilization = tiling_utilization_vector(m, n, config.rows, config.cols)

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

        A sweep's design point is solved as columns and builds no
        :class:`Decision`: the suite's distinct ``(m, n, t)`` shapes are
        read once from an attached store, the rest are solved in one
        :meth:`_solve_columns` pass (their rows reach the store in one
        ``put_many``), and the conventional baseline is priced once per
        distinct shape.  Both sides are gathered back to layer order and
        each model's time and energy are summed left to right
        (``np.add.accumulate``; ``np.sum`` adds pairwise), so every pair
        equals its :meth:`schedule_model_totals` counterparts bit for bit.
        """
        resolved = [resolve_workload(model)[0] for model in models]
        suite = [gemm for gemms in resolved for gemm in gemms]
        span = get_tracer().span(
            "backend.suite_totals", backend=self.name, models=len(resolved), layers=len(suite)
        )
        with span:
            # Each distinct shape's first GEMM, and every layer's position
            # among them.
            positions: dict[tuple[int, int, int], int] = {}
            shapes: list[GemmShape] = []
            inverse = []
            for gemm in suite:
                key = (gemm.m, gemm.n, gemm.t)
                position = positions.get(key)
                if position is None:
                    position = positions[key] = len(shapes)
                    shapes.append(gemm)
                inverse.append(position)
            time_ns, power_mw = self._suite_arrayflex(shapes, config)
            _, _, _, baseline_ns, _, baseline = self._conventional_columns(shapes, config)
            # Rows: ArrayFlex time and energy, then the baseline's; one
            # column per layer of the suite.
            layers = np.stack(
                [
                    time_ns,
                    power_mw * time_ns / 1000.0,
                    baseline_ns,
                    baseline["total_mw"] * baseline_ns / 1000.0,
                ]
            )[:, np.array(inverse)]
            pairs = []
            start = 0
            for gemms in resolved:
                stop = start + len(gemms)
                sums = np.add.accumulate(layers[:, start:stop], axis=1)[:, -1].tolist()
                pairs.append(
                    (
                        ModelTotals(time_ns=sums[0], energy_nj=sums[1]),
                        ModelTotals(time_ns=sums[2], energy_nj=sums[3]),
                    )
                )
                start = stop
        return pairs

    def _suite_arrayflex(
        self, shapes: list[GemmShape], config: ArrayFlexConfig
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(time_ns, power_mw)`` of distinct layer shapes.

        Shapes an attached store holds are read from it; the rest are
        solved in one :meth:`_solve_columns` pass and put back.
        """
        time_ns = np.empty(len(shapes))
        power_mw = np.empty(len(shapes))
        missing = list(range(len(shapes)))
        if self.store is not None:
            config_key = config.cache_key()
            stored = self.store.load(config_key)
            missing = []
            for position, gemm in enumerate(shapes):
                row = stored.get((gemm.m, gemm.n, gemm.t))
                if row is None:
                    missing.append(position)
                else:
                    time_ns[position] = row[ROW_TIME_NS]
                    power_mw[position] = row[ROW_POWER_MW]
        if missing:
            fresh = [shapes[position] for position in missing]
            with get_tracer().span(
                "backend.mode_search", backend=self.name, layers=len(fresh)
            ):
                solved = self._solve_columns(fresh, config)
            time_ns[missing] = solved.time_ns
            power_mw[missing] = solved.power["total_mw"]
            if self.store is not None:
                self.store.put_many(config_key, self._store_rows(fresh, solved, config))
        return time_ns, power_mw

    def _store_rows(
        self, gemms: list[GemmShape], solved: _Columns, config: ArrayFlexConfig
    ) -> dict[tuple[int, int, int], list]:
        """The :func:`decision_to_row` row of every solved shape, by key
        (same columns, same order)."""
        optimizer = self.components(config).optimizer
        rows = zip(
            np.array(config.sorted_depths())[solved.depth_index].tolist(),
            solved.cycles.tolist(),
            solved.frequency_ghz.tolist(),
            solved.time_ns.tolist(),
            # Eq. (7) lives in one place: the optimizer's closed form.
            [optimizer.analytical_optimal_depth(gemm) for gemm in gemms],
            solved.activity.tolist(),
            solved.utilization.tolist(),
            *(solved.power[name].tolist() for name in _POWER_COMPONENTS),
        )
        return {(gemm.m, gemm.n, gemm.t): list(row) for gemm, row in zip(gemms, rows)}

    def _totals(
        self, gemms: list[GemmShape], config: ArrayFlexConfig, conventional: bool
    ) -> ModelTotals:
        if conventional:
            _, _, _, times_ns, _, power = self._conventional_columns(gemms, config)
            return _accumulate(zip(power["total_mw"].tolist(), times_ns.tolist()))
        return _accumulate(
            (d.power_mw, d.execution_time_ns) for d in self._decide_batch(gemms, config)
        )

    def _conventional_columns(
        self, gemms: list[GemmShape], config: ArrayFlexConfig
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """The fixed-pipeline baseline over layer vectors.

        Eq. (2) (per-tile Eq. (1) cycles x tile count) is the vectorised
        restatement of :func:`repro.core.latency.conventional_total_cycles`,
        and every layer is priced at its own effective activity; the parity
        tests pin both against the scalar path.  Returns ``(m, n, cycles,
        times_ns, activity, power)``.  The per-layer schedule, the
        per-model totals and the suite totals all price the baseline here.
        """
        parts = self.components(config)
        rows, cols = config.rows, config.cols
        m, n, t, cycles = _layer_cycles(
            gemms, config, lambda t: (2 * rows + cols + t - 2)[:, None]
        )
        cycles = cycles[:, 0]
        activity = _effective_activity_vector(config, m, n, t)
        power = _conventional_power_vectors(
            config,
            activity,
            parts.clock.conventional_frequency_ghz(),
            parts.energy.power_model.conventional_pe_leakage_mw(),
        )
        return m, n, cycles, cycles * parts.clock.conventional_period_ns(), activity, power

    # ------------------------------------------------------------------ #
    # The vectorised decision pass
    # ------------------------------------------------------------------ #
    def _decide_batch(
        self, gemms: list[GemmShape], config: ArrayFlexConfig
    ) -> list[Decision]:
        """One decision per GEMM: store reads plus one NumPy pass.

        The batch is deduplicated by ``(m, n, t)``; each distinct shape is
        read at most once from an attached store, the rest are solved in
        one :meth:`_solve_vectorised` pass and put back into the store.
        """
        unique: dict[tuple[int, int, int], GemmShape] = {}
        for gemm in gemms:
            unique.setdefault((gemm.m, gemm.n, gemm.t), gemm)
        decisions: dict[tuple[int, int, int], Decision] = {}
        if self.store is not None:
            config_key = config.cache_key()
            stored = self.store.load(config_key)
            for key in unique:
                row = stored.get(key)
                if row is not None:
                    decisions[key] = decision_from_row(row)
        missing = [gemm for key, gemm in unique.items() if key not in decisions]
        if missing:
            with get_tracer().span(
                "backend.mode_search", backend=self.name, layers=len(missing)
            ):
                fresh = self._solve_vectorised(missing, config)
            solved = {(g.m, g.n, g.t): d for g, d in zip(missing, fresh)}
            decisions.update(solved)
            if self.store is not None:
                self.store.put_many(
                    config_key, {key: decision_to_row(d) for key, d in solved.items()}
                )
        return [decisions[(gemm.m, gemm.n, gemm.t)] for gemm in gemms]

    def _solve_vectorised(
        self, gemms: list[GemmShape], config: ArrayFlexConfig
    ) -> list[Decision]:
        """One :class:`Decision` per layer from one :meth:`_solve_columns` pass."""
        parts = self.components(config)
        depths = config.sorted_depths()
        best_col, best_cycles, best_frequencies, best_time, activity, utilization, power = (
            self._solve_columns(gemms, config)
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

    def _solve_columns(self, gemms: list[GemmShape], config: ArrayFlexConfig) -> _Columns:
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
        return _Columns(
            best_col, best_cycles, best_frequencies, best_time, activity, utilization, power
        )

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
