"""The paper's figures and tables plus ablations, computed and rendered.

Every artifact is a function that computes a small result (a list of
rows or a dataclass) plus a ``render_*`` function that turns the result
into the text table the CLI, the benchmarks and the examples print.  The
computations use only the public library API, so they double as
integration tests of that API.

The ArrayFlex-vs-conventional comparison behind Figs. 7-9, the
transformer suite and the activity study is one table,
:func:`comparison_grid`; each of those artifacts is a selection of its
rows.  Fig. 5, Fig. 6, Eq. (7), the operating points and the two design
ablations each compute their own dataclass (:func:`fig5_depth_sweep`,
:func:`fig6_area`, :func:`eq7_validation`, :func:`operating_points`,
:func:`csa_ablation`, :func:`direction_ablation`).
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
from repro.nn.models import convnext_tiny, model_zoo, resnet34
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


def fig5_depth_sweep(layer_index: int, technology: TechnologyModel | None = None) -> Fig5Result:
    """Fig. 5: ResNet-34 layer 20 or 28 on a 132x132 array, k in {1, 2, 3, 4}.

    The paper finds the execution-time minimum at k = 2 for layer 20
    (large T = 196) and at k = 4 for layer 28 (small T = 49), with the
    conventional fixed-pipeline SA shown as a reference line.
    """
    if layer_index not in (20, 28):
        raise ValueError("the paper's Fig. 5 studies layers 20 and 28")
    config = ArrayFlexConfig.fig5_132x132(technology)
    gemm = resnet34().gemm(layer_index)
    conventional_cycles = LatencyModel(config).conventional_total_cycles(gemm)
    conventional_time_ns = ClockModel(config).conventional_execution_time_ns(
        conventional_cycles
    )
    return Fig5Result(
        layer_index=layer_index,
        gemm=gemm,
        points=collapse_depth_sweep(gemm, config, depths=(1, 2, 3, 4)),
        conventional_time_us=conventional_time_ns / 1000.0,
    )


def render_fig5(result: Fig5Result) -> str:
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
    rows.append(("conventional", "-", "2.0", result.conventional_time_us, "0.0%"))
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


def fig6_area(technology: TechnologyModel | None = None) -> Fig6Result:
    """Fig. 6: physical-layout area comparison of 8x8 conventional vs ArrayFlex.

    The paper reports a per-PE area overhead of approximately 16%, consumed
    by the carry-save adder, the bypass multiplexers and the two
    configuration bits.
    """
    area_model = AreaModel(technology or TechnologyModel.default_28nm())
    rows = cols = 8
    return Fig6Result(
        conventional_pe_um2=area_model.conventional_pe_area().total,
        arrayflex_pe_um2=area_model.arrayflex_pe_area().total,
        pe_overhead=area_model.pe_area_overhead(),
        structural_overhead=area_model.pe_structural_overhead(),
        conventional_array_um2=area_model.array_area_um2(rows, cols, configurable=False),
        arrayflex_array_um2=area_model.array_area_um2(rows, cols, configurable=True),
        rows=rows,
        cols=cols,
    )


def render_fig6(result: Fig6Result) -> str:
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


def eq7_validation(
    rows: int = 128,
    cols: int = 128,
    technology: TechnologyModel | None = None,
    extra_gemms: Sequence[GemmShape] = (),
) -> Eq7Result:
    """Eq. (7): does the analytical k_hat predict the discrete optimum?

    The paper notes that "the best pipeline organization per CNN layer is
    approximated fairly accurately (assuming continuous values) by
    Equation (7)"; this quantifies the agreement over the layers of the
    three CNNs plus ``extra_gemms`` (e.g. a synthetic T sweep).  k_hat is
    rounded to the nearest supported depth, ties to the shallower one.
    """
    config = ArrayFlexConfig(
        rows=rows, cols=cols, technology=technology or TechnologyModel.default_28nm()
    )
    depths = config.sorted_depths()
    gemms = [gemm for model in model_zoo().values() for gemm in model.gemms()]
    optimizer = PipelineOptimizer(config)
    entries = []
    for gemm in [*gemms, *extra_gemms]:
        decision = optimizer.best_depth(gemm)
        k_hat = decision.analytical_depth
        rounded = min(depths, key=lambda depth: (abs(depth - k_hat), depth))
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


def render_eq7(result: Eq7Result) -> str:
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


def operating_points(technology: TechnologyModel | None = None) -> ClockResult:
    """Section IV operating points, with Eq. (5) cross-checked against STA.

    Covers every collapse depth of a kmax = 4 pipeline block, the deepest
    mode the paper's arrays support.
    """
    technology = technology or TechnologyModel.default_28nm()
    delay_model = DelayModel(technology)
    analyzer = StaticTimingAnalyzer(PipelineBlockNetlist(kmax=4, technology=technology))
    depths = range(1, 5)
    return ClockResult(
        conventional_ghz=delay_model.conventional_operating_point().clock_frequency_ghz,
        mode_ghz={
            depth: delay_model.arrayflex_operating_point(depth).clock_frequency_ghz
            for depth in depths
        },
        eq5_period_ps={depth: delay_model.clock_period_ps(depth) for depth in depths},
        sta_period_ps={depth: analyzer.minimum_clock_period_ps(depth) for depth in depths},
    )


def render_clock(result: ClockResult) -> str:
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


def csa_ablation(technology: TechnologyModel | None = None) -> CsaAblationResult:
    """What pipeline collapsing would cost without the 3:2 carry-save adders.

    Section III-B argues that chaining k carry-propagate adders would make
    the clock degradation prohibitive; this ablation quantifies it by
    re-running ConvNeXt-T on a 128x128 array at every fixed depth under
    the no-CSA clock model (k serial CPAs on the critical path).
    """
    technology = technology or TechnologyModel.default_28nm()
    model = convnext_tiny()
    config = ArrayFlexConfig(rows=128, cols=128, technology=technology)
    delay_model = DelayModel(technology)
    latency = LatencyModel(config)
    conventional = AnalyticalBackend().schedule_model_conventional(model, config)

    entries = []
    for depth in config.sorted_depths():
        with_csa = delay_model.clock_period_ps(depth)
        without_csa = delay_model.clock_period_ps_without_csa(depth)

        # Fixed-depth runs of the whole model under each clock model.
        total_with = 0.0
        total_without = 0.0
        for gemm in model.gemms():
            cycles = latency.total_cycles(gemm, depth)
            total_with += cycles * with_csa / 1000.0
            total_without += cycles * without_csa / 1000.0
        entries.append(
            CsaAblationEntry(
                collapse_depth=depth,
                period_with_csa_ps=with_csa,
                period_without_csa_ps=without_csa,
                model_saving_with_csa=1.0 - total_with / conventional.total_time_ns,
                model_saving_without_csa=1.0 - total_without / conventional.total_time_ns,
            )
        )
    return CsaAblationResult(entries=entries, model_name=model.name)


def render_abl_csa(result: CsaAblationResult) -> str:
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


def direction_ablation() -> DirectionAblationResult:
    """How much of the cycle reduction comes from each collapse direction.

    The paper collapses both the vertical reduction pipeline and the
    horizontal broadcast; this ablation evaluates each in isolation at
    k = 2 and 4 for ResNet-34 layer 28 on a 128x128 array, the small-T
    case where collapsing pays.
    """
    gemm = resnet34().gemm(28)
    rows = cols = 128
    tiles = tile_count(gemm.n, gemm.m, rows, cols)
    conventional = arrayflex_tile_cycles(rows, cols, gemm.t, 1) * tiles
    entries = [
        DirectionAblationEntry(
            collapse_depth=depth,
            cycles_both=arrayflex_tile_cycles(rows, cols, gemm.t, depth) * tiles,
            cycles_vertical_only=arrayflex_tile_cycles_vertical_only(
                rows, cols, gemm.t, depth
            )
            * tiles,
            cycles_horizontal_only=arrayflex_tile_cycles_horizontal_only(
                rows, cols, gemm.t, depth
            )
            * tiles,
            cycles_conventional=conventional,
        )
        for depth in (2, 4)
    ]
    return DirectionAblationResult(entries=entries, gemm=gemm, rows=rows, cols=cols)


def render_abl_dirs(result: DirectionAblationResult) -> str:
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
