"""The paper's figures and tables plus ablations, computed and rendered.

The ArrayFlex-vs-conventional comparison behind Figs. 7-9, the
transformer suite and the activity study is one table,
:func:`comparison_grid`; each of those artifacts is a selection of its
rows plus a ``render_*`` function.

Every other artifact is an experiment object of the same shape:

* ``run()`` computes a structured result (a small dataclass) using only the
  public library API, so the experiments double as integration tests of
  that API;
* ``render(result)`` turns the result into the text table printed by the
  benchmark harness and the examples;
* ``paper_reference`` documents what the paper reports for the same
  artifact, so EXPERIMENTS.md can show measured-vs-paper side by side.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.backends import AnalyticalBackend, ExecutionBackend, create_backend
from repro.core.arrayflex import ComparisonReport
from repro.core.config import ArrayFlexConfig
from repro.core.clock import ClockModel
from repro.core.latency import (
    LatencyModel,
    arrayflex_tile_cycles,
    arrayflex_tile_cycles_horizontal_only,
    arrayflex_tile_cycles_vertical_only,
    tile_count,
)
from repro.core.optimizer import PipelineOptimizer
from repro.eval.report import format_percent, format_ratio, format_table
from repro.eval.sweep import DepthSweepPoint, collapse_depth_sweep
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import CnnModel, convnext_tiny, model_zoo, resnet34
from repro.timing.area_model import AreaModel
from repro.timing.delay_model import DelayModel
from repro.timing.sta import PipelineBlockNetlist, StaticTimingAnalyzer
from repro.timing.technology import TechnologyModel


# ---------------------------------------------------------------------- #
# Fig. 5 -- execution time vs collapse depth for two ResNet-34 layers
# ---------------------------------------------------------------------- #
@dataclass
class Fig5Result:
    layer_index: int
    gemm: GemmShape
    points: list[DepthSweepPoint]
    conventional_time_us: float

    @property
    def best_depth(self) -> int:
        return min(self.points, key=lambda p: p.execution_time_us).collapse_depth

    @property
    def best_time_us(self) -> float:
        return min(p.execution_time_us for p in self.points)

    @property
    def best_saving(self) -> float:
        return 1.0 - self.best_time_us / self.conventional_time_us


class Fig5Experiment:
    """Fig. 5: ResNet-34 layers 20 / 28 on a 132x132 array, k in {1, 2, 3, 4}.

    The paper finds the execution-time minimum at k = 2 for layer 20
    (large T = 196) and at k = 4 for layer 28 (small T = 49), with the
    conventional fixed-pipeline SA shown as a reference line.
    """

    experiment_id = "fig5"
    paper_reference = {
        "layer20_best_k": 2,
        "layer28_best_k": 4,
        "array": "132x132",
        "depths": (1, 2, 3, 4),
    }

    def __init__(self, layer_index: int = 20, technology: TechnologyModel | None = None):
        if layer_index not in (20, 28):
            raise ValueError("the paper's Fig. 5 studies layers 20 and 28")
        self.layer_index = layer_index
        self.config = ArrayFlexConfig.fig5_132x132(technology)

    def run(self) -> Fig5Result:
        gemm = resnet34().gemm(self.layer_index)
        points = collapse_depth_sweep(gemm, self.config, depths=(1, 2, 3, 4))
        latency = LatencyModel(self.config)
        clock = ClockModel(self.config)
        conventional_cycles = latency.conventional_total_cycles(gemm)
        conventional_time_us = (
            clock.conventional_execution_time_ns(conventional_cycles) / 1000.0
        )
        return Fig5Result(
            layer_index=self.layer_index,
            gemm=gemm,
            points=points,
            conventional_time_us=conventional_time_us,
        )

    def render(self, result: Fig5Result | None = None) -> str:
        result = result or self.run()
        rows = [
            (
                f"k={p.collapse_depth}",
                p.cycles,
                f"{p.clock_frequency_ghz:.1f}",
                p.execution_time_us,
                format_percent(1.0 - p.execution_time_us / result.conventional_time_us),
            )
            for p in result.points
        ]
        rows.append(
            ("conventional", "-", "2.0", result.conventional_time_us, "0.0%")
        )
        return format_table(
            ["mode", "cycles", "clock (GHz)", "time (us)", "saving vs conventional"],
            rows,
            title=(
                f"Fig. 5 -- ResNet-34 layer {result.layer_index} "
                f"(M={result.gemm.m}, N={result.gemm.n}, T={result.gemm.t}), 132x132 SA"
            ),
        )


# ---------------------------------------------------------------------- #
# Fig. 6 -- area overhead of reconfigurability
# ---------------------------------------------------------------------- #
@dataclass
class Fig6Result:
    conventional_pe_um2: float
    arrayflex_pe_um2: float
    pe_overhead: float
    structural_overhead: float
    conventional_array_um2: float
    arrayflex_array_um2: float
    rows: int
    cols: int


class Fig6Experiment:
    """Fig. 6: physical-layout area comparison of 8x8 conventional vs ArrayFlex.

    The paper reports a per-PE area overhead of approximately 16%, consumed
    by the carry-save adder, the bypass multiplexers and the two
    configuration bits.
    """

    experiment_id = "fig6"
    paper_reference = {"pe_area_overhead": 0.16, "array": "8x8"}

    def __init__(self, rows: int = 8, cols: int = 8, technology: TechnologyModel | None = None):
        self.rows = rows
        self.cols = cols
        self.area_model = AreaModel(technology or TechnologyModel.default_28nm())

    def run(self) -> Fig6Result:
        conventional = self.area_model.conventional_pe_area()
        arrayflex = self.area_model.arrayflex_pe_area()
        return Fig6Result(
            conventional_pe_um2=conventional.total,
            arrayflex_pe_um2=arrayflex.total,
            pe_overhead=self.area_model.pe_area_overhead(),
            structural_overhead=self.area_model.pe_structural_overhead(),
            conventional_array_um2=self.area_model.array_area_um2(
                self.rows, self.cols, configurable=False
            ),
            arrayflex_array_um2=self.area_model.array_area_um2(
                self.rows, self.cols, configurable=True
            ),
            rows=self.rows,
            cols=self.cols,
        )

    def render(self, result: Fig6Result | None = None) -> str:
        result = result or self.run()
        rows = [
            ("conventional PE", result.conventional_pe_um2, "-"),
            ("ArrayFlex PE", result.arrayflex_pe_um2, format_percent(result.pe_overhead)),
            (
                f"conventional {result.rows}x{result.cols} array",
                result.conventional_array_um2,
                "-",
            ),
            (
                f"ArrayFlex {result.rows}x{result.cols} array",
                result.arrayflex_array_um2,
                format_percent(result.pe_overhead),
            ),
        ]
        return format_table(
            ["block", "area (um^2)", "overhead"],
            rows,
            title="Fig. 6 -- area of conventional vs ArrayFlex PEs",
        )


# ---------------------------------------------------------------------- #
# Figs. 7-9 and the beyond-paper suites: one comparison grid
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridRow(ComparisonReport):
    """One workload on both designs at one array size and activity model.

    ``activity_model`` names the model both schedules are priced under;
    ``phase`` is the workload's (``"-"`` for a CNN).
    """

    activity_model: str
    phase: str


def comparison_grid(
    workloads: Sequence,
    sizes: tuple[int, ...] = (128, 256),
    activity_models: tuple[str, ...] = ("constant",),
    technology: TechnologyModel | None = None,
    backend: ExecutionBackend | str | None = None,
) -> list[GridRow]:
    """ArrayFlex against the fixed-pipeline SA over size x activity model x workload.

    Figs. 7-9, the transformer suite and the activity study are
    renderers over selections of these rows, which come in loop order.
    Both designs of every row are scheduled on one backend (default:
    batched).
    """
    backend = create_backend(backend, default="batched")
    technology = technology or TechnologyModel.default_28nm()
    rows = []
    for size in sizes:
        for activity_model in activity_models:
            config = ArrayFlexConfig(
                rows=size, cols=size, technology=technology, activity_model=activity_model
            )
            for workload in workloads:
                arrayflex = backend.schedule_model(workload, config)
                rows.append(
                    GridRow(
                        model_name=arrayflex.model_name,
                        conventional=backend.schedule_model_conventional(workload, config),
                        arrayflex=arrayflex,
                        activity_model=activity_model,
                        phase=getattr(workload, "phase", "-"),
                    )
                )
    return rows


def value_range(rows: Sequence[ComparisonReport], attribute: str) -> tuple[float, float]:
    """(min, max) of one attribute (e.g. ``"latency_saving"``) over ``rows``."""
    values = [getattr(row, attribute) for row in rows]
    return min(values), max(values)


def shallow_layer_savings(row: ComparisonReport) -> list[float]:
    """Savings of the layers executed in a shallow (k > 1) pipeline mode."""
    return [
        1.0 - af.execution_time_ns / conv.execution_time_ns
        for conv, af in zip(row.conventional.layers, row.arrayflex.layers)
        if af.collapse_depth > 1
    ]


def _table_per_size(rows, title: str, headers: list[str], cells) -> str:
    """One table per array size in grid order: ``cells`` maps the rows of
    one size to table rows; ``title`` is formatted with that ``size``."""
    blocks = []
    for size in dict.fromkeys(row.arrayflex.rows for row in rows):
        selected = [row for row in rows if row.arrayflex.rows == size]
        blocks.append(format_table(headers, cells(selected), title=title.format(size=size)))
    return "\n\n".join(blocks)


def render_fig7(row: ComparisonReport) -> str:
    """Fig. 7: execution time of every layer of one workload, both designs.

    The paper observes for ConvNeXt on a 128x128 array: normal pipeline
    is best for the first ~11 layers, k = 2 for the middle layers and
    k = 4 for the last layers; per-layer savings reach up to ~26% and the
    total execution time drops by ~11%.
    """
    layers = []
    for conv_layer, af_layer in zip(row.conventional.layers, row.arrayflex.layers):
        saving = 1.0 - af_layer.execution_time_ns / conv_layer.execution_time_ns
        layers.append(
            (
                af_layer.index,
                af_layer.gemm.name,
                af_layer.gemm.t,
                af_layer.collapse_depth,
                round(af_layer.analytical_depth, 2),
                conv_layer.execution_time_ns / 1000.0,
                af_layer.execution_time_ns / 1000.0,
                format_percent(saving),
            )
        )
    table = format_table(
        [
            "layer",
            "name",
            "T",
            "k",
            "k_hat (Eq.7)",
            "conventional (us)",
            "ArrayFlex (us)",
            "saving",
        ],
        layers,
        title=(
            f"Fig. 7 -- per-layer execution time of {row.model_name} "
            f"on {row.arrayflex.rows}x{row.arrayflex.cols} SAs"
        ),
    )
    footer = (
        f"\ntotal: conventional {row.conventional.total_time_ms:.3f} ms, "
        f"ArrayFlex {row.arrayflex.total_time_ms:.3f} ms, "
        f"saving {format_percent(row.latency_saving)}"
    )
    return table + footer


def render_fig8(rows: Sequence[GridRow]) -> str:
    """Fig. 8: total execution time per workload, one table per array size.

    The paper reports 9%-11% lower execution latency for ArrayFlex across
    both 128x128 and 256x256 arrays, with the savings growing for the
    larger array because more layers prefer k = 4.
    """

    def cells(selected):
        reference = max(row.conventional.total_time_ms for row in selected)
        return [
            (
                row.model_name,
                row.conventional.total_time_ms,
                row.arrayflex.total_time_ms,
                row.conventional.total_time_ms / reference,
                row.arrayflex.total_time_ms / reference,
                format_percent(row.latency_saving),
                str(row.arrayflex.depth_histogram()),
            )
            for row in selected
        ]

    return _table_per_size(
        rows,
        "Fig. 8 -- total execution time, {size}x{size} SAs",
        [
            "model",
            "conventional (ms)",
            "ArrayFlex (ms)",
            "conv (norm)",
            "AF (norm)",
            "saving",
            "layers per k",
        ],
        cells,
    )


def render_fig9(rows: Sequence[GridRow]) -> str:
    """Fig. 9: average power and EDP gain, one table per array size.

    The paper reports power savings of 13%-15% for 128x128 arrays and
    17%-23% for 256x256 arrays, for a combined 1.4x-1.8x energy-delay
    product advantage.  SRAM and peripheral power is excluded, as in the
    paper.
    """

    def cells(selected):
        return [
            (
                row.model_name,
                row.conventional.average_power_mw / 1000.0,
                row.arrayflex.average_power_mw / 1000.0,
                format_percent(row.power_saving),
                format_ratio(row.edp_gain),
                ", ".join(
                    f"k={depth}: {format_percent(share)}"
                    for depth, share in sorted(row.arrayflex.time_share_by_depth().items())
                ),
            )
            for row in selected
        ]

    return _table_per_size(
        rows,
        "Fig. 9 -- average power, {size}x{size} SAs",
        [
            "model",
            "conventional (W)",
            "ArrayFlex (W)",
            "power saving",
            "EDP gain",
            "time share per mode",
        ],
        cells,
    )


def render_transformers(rows: Sequence[GridRow]) -> str:
    """Transformer counterpart of the Fig. 8/9 tables (not a paper figure).

    The paper evaluates CNNs only, but its per-layer mode decision is
    defined on raw GEMM shapes, so the same machinery schedules
    transformer traces unchanged.  Decode (T = batch) lives deep in the
    small-T regime where collapsed modes pay off most; prefill
    (T = batch x seq) behaves like a mid-size CNN layer.
    """

    def cells(selected):
        return [
            (
                row.model_name,
                row.phase,
                len(row.arrayflex.layers),
                row.conventional.total_time_ms,
                row.arrayflex.total_time_ms,
                format_percent(row.latency_saving),
                format_ratio(row.edp_gain),
                str(dict(sorted(row.arrayflex.depth_histogram().items()))),
            )
            for row in selected
        ]

    return _table_per_size(
        rows,
        "Transformer suite -- total execution time, {size}x{size} SAs",
        [
            "workload",
            "phase",
            "GEMMs",
            "conventional (ms)",
            "ArrayFlex (ms)",
            "saving",
            "EDP gain",
            "layers per k",
        ],
        cells,
    )


def render_activity(rows: Sequence[GridRow]) -> str:
    """Constant vs utilization activity per workload, one table per array size.

    Not a paper figure: the paper prices every PE as busy every cycle
    (``activity = 1.0``).  The :class:`~repro.core.activity.
    UtilizationActivity` model instead derates each layer's datapath
    energy by its occupied-PE tiling fraction (edge tiles underfill the
    R x C array), which lowers absolute energies without touching any
    timing number.  ``rows`` hold both models at every size.
    """

    def cells(selected):
        constant = [row for row in selected if row.activity_model == "constant"]
        derated = [row for row in selected if row.activity_model == "utilization"]
        return [
            (
                const.model_name,
                format_percent(util.arrayflex.average_utilization()),
                const.arrayflex.total_energy_nj / 1000.0,
                util.arrayflex.total_energy_nj / 1000.0,
                # A cut of total energy, which includes the activity-invariant
                # clock-tree and leakage energy: it understates the datapath cut.
                format_percent(
                    1.0 - util.arrayflex.total_energy_nj / const.arrayflex.total_energy_nj
                ),
                format_ratio(const.edp_gain),
                format_ratio(util.edp_gain),
            )
            for const, util in zip(constant, derated)
        ]

    return _table_per_size(
        rows,
        "Activity sensitivity -- constant vs utilization activity, {size}x{size} SAs",
        [
            "workload",
            "avg util",
            "E const (uJ)",
            "E util (uJ)",
            "energy cut",
            "EDP gain const",
            "EDP gain util",
        ],
        cells,
    )


# ---------------------------------------------------------------------- #
# Eq. (7) -- analytical vs discrete optimum
# ---------------------------------------------------------------------- #
@dataclass
class Eq7Entry:
    gemm: GemmShape
    analytical_depth: float
    analytical_rounded: int
    discrete_best: int
    agree: bool


@dataclass
class Eq7Result:
    entries: list[Eq7Entry]

    @property
    def agreement_rate(self) -> float:
        if not self.entries:
            return 0.0
        return sum(entry.agree for entry in self.entries) / len(self.entries)


class Eq7ValidationExperiment:
    """Eq. (7): does the analytical k_hat predict the discrete optimum?

    The paper notes that "the best pipeline organization per CNN layer is
    approximated fairly accurately (assuming continuous values) by
    Equation (7)"; this experiment quantifies the agreement over the layers
    of the three CNNs plus a synthetic T sweep.
    """

    experiment_id = "eq7"
    paper_reference = {"claim": "Eq. 7 approximates the per-layer optimum fairly accurately"}

    def __init__(
        self,
        rows: int = 128,
        cols: int = 128,
        technology: TechnologyModel | None = None,
        extra_gemms: list[GemmShape] | None = None,
    ):
        self.config = ArrayFlexConfig(
            rows=rows, cols=cols, technology=technology or TechnologyModel.default_28nm()
        )
        self.extra_gemms = extra_gemms or []

    def _candidate_gemms(self) -> list[GemmShape]:
        gemms: list[GemmShape] = []
        for model in model_zoo().values():
            gemms.extend(model.gemms())
        gemms.extend(self.extra_gemms)
        return gemms

    def _round_to_supported(self, k_hat: float) -> int:
        depths = self.config.sorted_depths()
        return min(depths, key=lambda d: (abs(d - k_hat), d))

    def run(self) -> Eq7Result:
        optimizer = PipelineOptimizer(self.config)
        entries = []
        for gemm in self._candidate_gemms():
            decision = optimizer.best_depth(gemm)
            k_hat = decision.analytical_depth
            rounded = self._round_to_supported(k_hat)
            entries.append(
                Eq7Entry(
                    gemm=gemm,
                    analytical_depth=k_hat,
                    analytical_rounded=rounded,
                    discrete_best=decision.collapse_depth,
                    agree=rounded == decision.collapse_depth,
                )
            )
        return Eq7Result(entries=entries)

    def render(self, result: Eq7Result | None = None) -> str:
        result = result or self.run()
        rows = [
            (
                entry.gemm.name,
                entry.gemm.t,
                round(entry.analytical_depth, 2),
                entry.analytical_rounded,
                entry.discrete_best,
                entry.agree,
            )
            for entry in result.entries[:40]
        ]
        table = format_table(
            ["layer", "T", "k_hat", "rounded", "discrete best", "agree"],
            rows,
            title="Eq. 7 -- analytical vs discrete optimal collapse depth (first 40 layers)",
        )
        return table + (
            f"\nagreement over {len(result.entries)} layers: "
            f"{format_percent(result.agreement_rate)}"
        )


# ---------------------------------------------------------------------- #
# Operating points and the STA cross-check
# ---------------------------------------------------------------------- #
@dataclass
class ClockResult:
    conventional_ghz: float
    mode_ghz: dict[int, float]
    eq5_period_ps: dict[int, float]
    sta_period_ps: dict[int, float]


class ClockFrequencyExperiment:
    """Section IV operating points, with Eq. (5) cross-checked against STA."""

    experiment_id = "tab_freq"
    paper_reference = {
        "conventional_ghz": 2.0,
        "k1_ghz": 1.8,
        "k2_ghz": 1.7,
        "k4_ghz": 1.4,
    }

    def __init__(self, technology: TechnologyModel | None = None, kmax: int = 4):
        self.technology = technology or TechnologyModel.default_28nm()
        self.kmax = kmax

    def run(self) -> ClockResult:
        delay_model = DelayModel(self.technology)
        netlist = PipelineBlockNetlist(kmax=self.kmax, technology=self.technology)
        analyzer = StaticTimingAnalyzer(netlist)
        mode_ghz = {}
        eq5 = {}
        sta = {}
        for depth in range(1, self.kmax + 1):
            point = delay_model.arrayflex_operating_point(depth)
            mode_ghz[depth] = point.clock_frequency_ghz
            eq5[depth] = delay_model.clock_period_ps(depth)
            sta[depth] = analyzer.minimum_clock_period_ps(depth)
        return ClockResult(
            conventional_ghz=delay_model.conventional_operating_point().clock_frequency_ghz,
            mode_ghz=mode_ghz,
            eq5_period_ps=eq5,
            sta_period_ps=sta,
        )

    def render(self, result: ClockResult | None = None) -> str:
        result = result or self.run()
        rows = [("conventional", "-", "-", f"{result.conventional_ghz:.1f}")]
        for depth in sorted(result.mode_ghz):
            rows.append(
                (
                    f"ArrayFlex k={depth}",
                    result.eq5_period_ps[depth],
                    result.sta_period_ps[depth],
                    f"{result.mode_ghz[depth]:.1f}",
                )
            )
        return format_table(
            ["design point", "Eq. 5 period (ps)", "STA period (ps)", "clock (GHz)"],
            rows,
            title="Operating points (Section IV) and STA cross-check",
        )


# ---------------------------------------------------------------------- #
# Ablation: pipeline collapsing without the carry-save adders
# ---------------------------------------------------------------------- #
@dataclass
class CsaAblationEntry:
    collapse_depth: int
    period_with_csa_ps: float
    period_without_csa_ps: float
    model_saving_with_csa: float
    model_saving_without_csa: float


@dataclass
class CsaAblationResult:
    entries: list[CsaAblationEntry]
    model_name: str


class CsaAblationExperiment:
    """What pipeline collapsing would cost without the 3:2 carry-save adders.

    Section III-B argues that chaining k carry-propagate adders would make
    the clock degradation prohibitive; this ablation quantifies it by
    re-running the ConvNeXt comparison with the no-CSA clock model
    (k serial CPAs on the critical path).
    """

    experiment_id = "abl_csa"
    paper_reference = {
        "claim": "carry-save adders keep the clock degradation small (Section III-B)"
    }

    def __init__(
        self,
        model: CnnModel | None = None,
        rows: int = 128,
        cols: int = 128,
        technology: TechnologyModel | None = None,
    ):
        self.model = model or convnext_tiny()
        self.technology = technology or TechnologyModel.default_28nm()
        self.config = ArrayFlexConfig(rows=rows, cols=cols, technology=self.technology)

    def run(self) -> CsaAblationResult:
        delay_model = DelayModel(self.technology)
        latency = LatencyModel(self.config)
        conventional = AnalyticalBackend().schedule_model_conventional(
            self.model, self.config
        )

        entries = []
        for depth in self.config.sorted_depths():
            with_csa = delay_model.clock_period_ps(depth)
            without_csa = delay_model.clock_period_ps_without_csa(depth)

            # Fixed-depth runs of the whole model under each clock model.
            total_with = 0.0
            total_without = 0.0
            for gemm in self.model.gemms():
                cycles = latency.total_cycles(gemm, depth)
                total_with += cycles * with_csa / 1000.0
                total_without += cycles * without_csa / 1000.0
            conventional_total_ns = conventional.total_time_ns
            entries.append(
                CsaAblationEntry(
                    collapse_depth=depth,
                    period_with_csa_ps=with_csa,
                    period_without_csa_ps=without_csa,
                    model_saving_with_csa=1.0 - total_with / conventional_total_ns,
                    model_saving_without_csa=1.0 - total_without / conventional_total_ns,
                )
            )
        return CsaAblationResult(entries=entries, model_name=self.model.name)

    def render(self, result: CsaAblationResult | None = None) -> str:
        result = result or self.run()
        rows = [
            (
                f"k={entry.collapse_depth}",
                entry.period_with_csa_ps,
                entry.period_without_csa_ps,
                format_percent(entry.model_saving_with_csa),
                format_percent(entry.model_saving_without_csa),
            )
            for entry in result.entries
        ]
        return format_table(
            [
                "mode",
                "period w/ CSA (ps)",
                "period w/o CSA (ps)",
                f"{result.model_name} saving w/ CSA",
                "saving w/o CSA",
            ],
            rows,
            title="Ablation -- collapsing with vs without carry-save adders",
        )


# ---------------------------------------------------------------------- #
# Ablation: collapse directions
# ---------------------------------------------------------------------- #
@dataclass
class DirectionAblationEntry:
    collapse_depth: int
    cycles_both: int
    cycles_vertical_only: int
    cycles_horizontal_only: int
    cycles_conventional: int


@dataclass
class DirectionAblationResult:
    entries: list[DirectionAblationEntry]
    gemm: GemmShape
    rows: int
    cols: int


class DirectionAblationExperiment:
    """How much of the cycle reduction comes from each collapse direction.

    The paper collapses both the vertical reduction pipeline and the
    horizontal broadcast; this ablation evaluates each in isolation for a
    representative late-CNN GEMM.
    """

    experiment_id = "abl_dirs"
    paper_reference = {
        "claim": "both directions are collapsed (Section III): R/k and C/k terms"
    }

    def __init__(
        self,
        gemm: GemmShape | None = None,
        rows: int = 128,
        cols: int = 128,
        depths: tuple[int, ...] = (2, 4),
    ):
        # Default: ResNet-34 layer 28, the small-T case where collapsing pays.
        self.gemm = gemm or resnet34().gemm(28)
        self.rows = rows
        self.cols = cols
        self.depths = depths

    def run(self) -> DirectionAblationResult:
        tiles = tile_count(self.gemm.n, self.gemm.m, self.rows, self.cols)
        entries = []
        conventional = arrayflex_tile_cycles(self.rows, self.cols, self.gemm.t, 1) * tiles
        for depth in self.depths:
            entries.append(
                DirectionAblationEntry(
                    collapse_depth=depth,
                    cycles_both=arrayflex_tile_cycles(self.rows, self.cols, self.gemm.t, depth)
                    * tiles,
                    cycles_vertical_only=arrayflex_tile_cycles_vertical_only(
                        self.rows, self.cols, self.gemm.t, depth
                    )
                    * tiles,
                    cycles_horizontal_only=arrayflex_tile_cycles_horizontal_only(
                        self.rows, self.cols, self.gemm.t, depth
                    )
                    * tiles,
                    cycles_conventional=conventional,
                )
            )
        return DirectionAblationResult(
            entries=entries, gemm=self.gemm, rows=self.rows, cols=self.cols
        )

    def render(self, result: DirectionAblationResult | None = None) -> str:
        result = result or self.run()
        rows = []
        for entry in result.entries:
            base = entry.cycles_conventional
            rows.append(
                (
                    f"k={entry.collapse_depth}",
                    entry.cycles_conventional,
                    entry.cycles_vertical_only,
                    entry.cycles_horizontal_only,
                    entry.cycles_both,
                    format_percent(1.0 - entry.cycles_both / base),
                )
            )
        return format_table(
            [
                "mode",
                "normal cycles",
                "vertical-only",
                "horizontal-only",
                "both",
                "cycle reduction (both)",
            ],
            rows,
            title=(
                f"Ablation -- collapse directions for {result.gemm.name} "
                f"(T={result.gemm.t}) on {result.rows}x{result.cols}"
            ),
        )


# ---------------------------------------------------------------------- #
# Beyond the paper: declarative knob-importance study over the design space
# ---------------------------------------------------------------------- #
class AblationExperiment:
    """Which design knob mattered?  The stock declarative ablation study.

    A thin experiment wrapper over :class:`~repro.eval.ablation.
    AblationStudy`: runs the baseline-plus-one-off set of the given (or
    default) study through :class:`~repro.serve.SchedulingService` and
    renders the per-component importance ranking.  Declare a custom
    study for any other "did my knob matter" question; this instance
    exists so the ranking shows up in ``python -m repro experiment
    ablation`` and EXPERIMENTS.md.
    """

    experiment_id = "ablation"
    paper_reference = {
        "claim": (
            "beyond the paper: rank every design knob (activity model, "
            "array geometry, collapse-depth set) by the latency/energy/EDP "
            "delta its one-off flip causes against the paper baseline"
        )
    }

    def __init__(self, study=None, backend: ExecutionBackend | str | None = None):
        from repro.eval.ablation import default_study

        if study is None:
            study = default_study(
                backend=create_backend(backend, default="batched")
            )
        self.study = study

    def run(self):
        return self.study.run()

    def render(self, result=None) -> str:
        result = result or self.run()
        return result.render()

