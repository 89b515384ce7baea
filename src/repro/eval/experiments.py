"""Experiment objects, one per paper figure/table plus ablations.

Every experiment follows the same shape:

* ``run()`` computes a structured result (a small dataclass) using only the
  public library API, so the experiments double as integration tests of
  that API;
* ``render(result)`` turns the result into the text table printed by the
  benchmark harness and the examples;
* ``paper_reference`` documents what the paper reports for the same
  artifact, so EXPERIMENTS.md can show measured-vs-paper side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import AnalyticalBackend, ExecutionBackend, create_backend
from repro.core.arrayflex import ArrayFlexAccelerator, ComparisonReport
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
from repro.core.metrics import ModelSchedule
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
# Fig. 7 -- per-layer execution time of ConvNeXt
# ---------------------------------------------------------------------- #
@dataclass
class Fig7Result:
    model_name: str
    conventional: ModelSchedule
    arrayflex: ModelSchedule

    @property
    def total_saving(self) -> float:
        return 1.0 - self.arrayflex.total_time_ns / self.conventional.total_time_ns

    def per_layer_savings(self) -> list[float]:
        savings = []
        for conv_layer, af_layer in zip(self.conventional.layers, self.arrayflex.layers):
            savings.append(1.0 - af_layer.execution_time_ns / conv_layer.execution_time_ns)
        return savings

    def shallow_layer_savings(self) -> list[float]:
        """Savings of the layers executed in a shallow (k > 1) pipeline mode."""
        return [
            1.0 - af.execution_time_ns / conv.execution_time_ns
            for conv, af in zip(self.conventional.layers, self.arrayflex.layers)
            if af.collapse_depth > 1
        ]

    def depth_of_layer(self, index: int) -> int:
        return self.arrayflex.layers[index - 1].collapse_depth


class Fig7Experiment:
    """Fig. 7: execution time of every ConvNeXt layer, conventional vs ArrayFlex.

    The paper observes, on a 128x128 array: normal pipeline is best for the
    first ~11 layers, k = 2 for the middle layers and k = 4 for the last
    layers; per-layer savings reach up to ~26% and the total execution time
    drops by ~11%.
    """

    experiment_id = "fig7"
    paper_reference = {
        "array": "128x128",
        "total_saving": 0.11,
        "per_layer_saving_max": 0.26,
        "early_layers_depth": 1,
        "late_layers_depth": 4,
    }

    def __init__(
        self,
        model: CnnModel | None = None,
        rows: int = 128,
        cols: int = 128,
        technology: TechnologyModel | None = None,
        backend: ExecutionBackend | str | None = None,
    ):
        self.model = model or convnext_tiny()
        self.config = ArrayFlexConfig(
            rows=rows, cols=cols, technology=technology or TechnologyModel.default_28nm()
        )
        self.backend = create_backend(backend, default="batched")

    def run(self) -> Fig7Result:
        return Fig7Result(
            model_name=self.model.name,
            conventional=self.backend.schedule_model_conventional(
                self.model, self.config
            ),
            arrayflex=self.backend.schedule_model(self.model, self.config),
        )

    def render(self, result: Fig7Result | None = None) -> str:
        result = result or self.run()
        rows = []
        for conv_layer, af_layer in zip(result.conventional.layers, result.arrayflex.layers):
            saving = 1.0 - af_layer.execution_time_ns / conv_layer.execution_time_ns
            rows.append(
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
            rows,
            title=(
                f"Fig. 7 -- per-layer execution time of {result.model_name} "
                f"on {result.arrayflex.rows}x{result.arrayflex.cols} SAs"
            ),
        )
        footer = (
            f"\ntotal: conventional {result.conventional.total_time_ms:.3f} ms, "
            f"ArrayFlex {result.arrayflex.total_time_ms:.3f} ms, "
            f"saving {format_percent(result.total_saving)}"
        )
        return table + footer


# ---------------------------------------------------------------------- #
# Fig. 8 -- normalized total execution times of three CNNs
# ---------------------------------------------------------------------- #
@dataclass
class Fig8Entry:
    rows: int
    cols: int
    model_name: str
    conventional_time_ms: float
    arrayflex_time_ms: float
    latency_saving: float
    depth_histogram: dict[int, int] = field(default_factory=dict)


@dataclass
class Fig8Result:
    entries: list[Fig8Entry]

    def by_size(self, rows: int) -> list[Fig8Entry]:
        return [entry for entry in self.entries if entry.rows == rows]

    def savings_range(self) -> tuple[float, float]:
        savings = [entry.latency_saving for entry in self.entries]
        return min(savings), max(savings)


class Fig8Experiment:
    """Fig. 8: total execution time of ResNet-34, MobileNet, ConvNeXt.

    The paper reports 9%-11% lower execution latency for ArrayFlex across
    both 128x128 and 256x256 arrays, with the savings growing for the
    larger array because more layers prefer k = 4.
    """

    experiment_id = "fig8"
    paper_reference = {"latency_saving_range": (0.09, 0.11), "sizes": (128, 256)}

    def __init__(
        self,
        sizes: tuple[int, ...] = (128, 256),
        models: list[CnnModel] | None = None,
        technology: TechnologyModel | None = None,
        backend: ExecutionBackend | str | None = None,
    ):
        self.sizes = sizes
        self.models = models or list(model_zoo().values())
        self.technology = technology or TechnologyModel.default_28nm()
        self.backend = create_backend(backend, default="batched")

    def run(self) -> Fig8Result:
        entries = []
        for size in self.sizes:
            config = ArrayFlexConfig(rows=size, cols=size, technology=self.technology)
            for model in self.models:
                arrayflex = self.backend.schedule_model(model, config)
                conventional = self.backend.schedule_model_conventional(model, config)
                entries.append(
                    Fig8Entry(
                        rows=size,
                        cols=size,
                        model_name=model.name,
                        conventional_time_ms=conventional.total_time_ms,
                        arrayflex_time_ms=arrayflex.total_time_ms,
                        latency_saving=(
                            1.0 - arrayflex.total_time_ns / conventional.total_time_ns
                        ),
                        depth_histogram=arrayflex.depth_histogram(),
                    )
                )
        return Fig8Result(entries=entries)

    def render(self, result: Fig8Result | None = None) -> str:
        result = result or self.run()
        blocks = []
        for size in self.sizes:
            entries = result.by_size(size)
            reference = max(entry.conventional_time_ms for entry in entries)
            rows = [
                (
                    entry.model_name,
                    entry.conventional_time_ms,
                    entry.arrayflex_time_ms,
                    entry.conventional_time_ms / reference,
                    entry.arrayflex_time_ms / reference,
                    format_percent(entry.latency_saving),
                    str(entry.depth_histogram),
                )
                for entry in entries
            ]
            blocks.append(
                format_table(
                    [
                        "model",
                        "conventional (ms)",
                        "ArrayFlex (ms)",
                        "conv (norm)",
                        "AF (norm)",
                        "saving",
                        "layers per k",
                    ],
                    rows,
                    title=f"Fig. 8 -- total execution time, {size}x{size} SAs",
                )
            )
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------- #
# Fig. 9 -- average power and EDP
# ---------------------------------------------------------------------- #
@dataclass
class Fig9Entry:
    rows: int
    cols: int
    model_name: str
    conventional_power_mw: float
    arrayflex_power_mw: float
    power_saving: float
    edp_gain: float
    mode_power_mw: dict[int, float] = field(default_factory=dict)
    mode_time_share: dict[int, float] = field(default_factory=dict)


@dataclass
class Fig9Result:
    entries: list[Fig9Entry]

    def by_size(self, rows: int) -> list[Fig9Entry]:
        return [entry for entry in self.entries if entry.rows == rows]

    def power_saving_range(self, rows: int) -> tuple[float, float]:
        savings = [entry.power_saving for entry in self.by_size(rows)]
        return min(savings), max(savings)

    def edp_range(self) -> tuple[float, float]:
        gains = [entry.edp_gain for entry in self.entries]
        return min(gains), max(gains)


class Fig9Experiment:
    """Fig. 9: average power of both SAs over complete CNN runs.

    The paper reports power savings of 13%-15% for 128x128 arrays and
    17%-23% for 256x256 arrays, for a combined 1.4x-1.8x energy-delay
    product advantage.  SRAM and peripheral power is excluded, as in the
    paper.
    """

    experiment_id = "fig9"
    paper_reference = {
        "power_saving_128": (0.13, 0.15),
        "power_saving_256": (0.17, 0.23),
        "edp_gain_range": (1.4, 1.8),
    }

    def __init__(
        self,
        sizes: tuple[int, ...] = (128, 256),
        models: list[CnnModel] | None = None,
        technology: TechnologyModel | None = None,
        backend: ExecutionBackend | str | None = None,
    ):
        self.sizes = sizes
        self.models = models or list(model_zoo().values())
        self.technology = technology or TechnologyModel.default_28nm()
        self.backend = create_backend(backend, default="batched")

    def run(self) -> Fig9Result:
        entries = []
        for size in self.sizes:
            config = ArrayFlexConfig(rows=size, cols=size, technology=self.technology)
            accel = ArrayFlexAccelerator(config=config, backend=self.backend)
            for model in self.models:
                comparison: ComparisonReport = accel.compare_with_conventional(model)
                arrayflex = comparison.arrayflex
                mode_power = {
                    depth: accel.energy.arrayflex_power_mw(
                        depth, accel.clock.frequency_ghz(depth)
                    )
                    for depth in config.sorted_depths()
                }
                entries.append(
                    Fig9Entry(
                        rows=size,
                        cols=size,
                        model_name=model.name,
                        conventional_power_mw=comparison.conventional.average_power_mw,
                        arrayflex_power_mw=arrayflex.average_power_mw,
                        power_saving=comparison.power_saving,
                        edp_gain=comparison.edp_gain,
                        mode_power_mw=mode_power,
                        mode_time_share=arrayflex.time_share_by_depth(),
                    )
                )
        return Fig9Result(entries=entries)

    def render(self, result: Fig9Result | None = None) -> str:
        result = result or self.run()
        blocks = []
        for size in self.sizes:
            rows = []
            for entry in result.by_size(size):
                shares = ", ".join(
                    f"k={depth}: {format_percent(share)}"
                    for depth, share in sorted(entry.mode_time_share.items())
                )
                rows.append(
                    (
                        entry.model_name,
                        entry.conventional_power_mw / 1000.0,
                        entry.arrayflex_power_mw / 1000.0,
                        format_percent(entry.power_saving),
                        format_ratio(entry.edp_gain),
                        shares,
                    )
                )
            blocks.append(
                format_table(
                    [
                        "model",
                        "conventional (W)",
                        "ArrayFlex (W)",
                        "power saving",
                        "EDP gain",
                        "time share per mode",
                    ],
                    rows,
                    title=f"Fig. 9 -- average power, {size}x{size} SAs",
                )
            )
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------- #
# Beyond the paper: the transformer workload suite
# ---------------------------------------------------------------------- #
@dataclass
class TransformerSuiteEntry:
    rows: int
    cols: int
    workload_name: str
    phase: str
    num_gemms: int
    conventional_time_ms: float
    arrayflex_time_ms: float
    latency_saving: float
    edp_gain: float
    depth_histogram: dict[int, int] = field(default_factory=dict)


@dataclass
class TransformerSuiteResult:
    entries: list[TransformerSuiteEntry]

    def by_size(self, rows: int) -> list[TransformerSuiteEntry]:
        return [entry for entry in self.entries if entry.rows == rows]

    def savings_range(self) -> tuple[float, float]:
        savings = [entry.latency_saving for entry in self.entries]
        return min(savings), max(savings)


class TransformerSuiteExperiment:
    """Transformer counterpart of the Fig. 8/9 paper-suite tables.

    Not a paper figure: the paper evaluates CNNs only, but its per-layer
    mode decision is defined on raw GEMM shapes, so the same machinery
    schedules transformer traces unchanged.  This experiment runs the
    ``transformers`` registry suite — BERT-Base and ViT-B/16 prefill,
    GPT-2-style decode — against the conventional fixed-pipeline baseline
    on the paper's two array sizes.  Decode (T = batch) lives deep in the
    small-T regime where collapsed modes pay off most; prefill
    (T = batch x seq) behaves like a mid-size CNN layer.
    """

    experiment_id = "transformers"
    paper_reference = {
        "claim": (
            "beyond the paper: Eq. (6) decisions on raw GEMM shapes extend to "
            "transformer attention/MLP traces"
        )
    }

    def __init__(
        self,
        sizes: tuple[int, ...] = (128, 256),
        workloads: list | None = None,
        batch: int = 1,
        technology: TechnologyModel | None = None,
        backend: ExecutionBackend | str | None = None,
    ):
        from repro.workloads import get_suite

        self.sizes = sizes
        self.workloads = (
            workloads if workloads is not None else get_suite("transformers", batch=batch)
        )
        self.technology = technology or TechnologyModel.default_28nm()
        self.backend = create_backend(backend, default="batched")

    def run(self) -> TransformerSuiteResult:
        entries = []
        for size in self.sizes:
            config = ArrayFlexConfig(rows=size, cols=size, technology=self.technology)
            for workload in self.workloads:
                arrayflex = self.backend.schedule_model(workload, config)
                conventional = self.backend.schedule_model_conventional(workload, config)
                entries.append(
                    TransformerSuiteEntry(
                        rows=size,
                        cols=size,
                        workload_name=workload.name,
                        phase=getattr(workload, "phase", "-"),
                        num_gemms=len(arrayflex.layers),
                        conventional_time_ms=conventional.total_time_ms,
                        arrayflex_time_ms=arrayflex.total_time_ms,
                        latency_saving=(
                            1.0 - arrayflex.total_time_ns / conventional.total_time_ns
                        ),
                        edp_gain=(
                            conventional.energy_delay_product
                            / arrayflex.energy_delay_product
                        ),
                        depth_histogram=arrayflex.depth_histogram(),
                    )
                )
        return TransformerSuiteResult(entries=entries)

    def render(self, result: TransformerSuiteResult | None = None) -> str:
        result = result or self.run()
        blocks = []
        for size in self.sizes:
            rows = [
                (
                    entry.workload_name,
                    entry.phase,
                    entry.num_gemms,
                    entry.conventional_time_ms,
                    entry.arrayflex_time_ms,
                    format_percent(entry.latency_saving),
                    format_ratio(entry.edp_gain),
                    str(dict(sorted(entry.depth_histogram.items()))),
                )
                for entry in result.by_size(size)
            ]
            blocks.append(
                format_table(
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
                    rows,
                    title=(
                        f"Transformer suite -- total execution time, {size}x{size} SAs"
                    ),
                )
            )
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------- #
# Beyond the paper: activity-model sensitivity of the energy results
# ---------------------------------------------------------------------- #
@dataclass
class ActivitySensitivityEntry:
    workload_name: str
    rows: int
    cols: int
    average_utilization: float
    constant_energy_nj: float
    utilization_energy_nj: float
    constant_edp_gain: float
    utilization_edp_gain: float

    @property
    def energy_reduction(self) -> float:
        """Fractional ArrayFlex *total*-energy reduction from derating.

        Totals include the activity-invariant clock-tree and leakage
        energy, so this understates the datapath-only reduction (for the
        per-component figure see ``LayerMetrics.datapath_energy_nj``).
        """
        return 1.0 - self.utilization_energy_nj / self.constant_energy_nj


@dataclass
class ActivitySensitivityResult:
    entries: list[ActivitySensitivityEntry]

    def by_size(self, rows: int) -> list[ActivitySensitivityEntry]:
        return [entry for entry in self.entries if entry.rows == rows]


class ActivitySensitivityExperiment:
    """How sensitive are the Fig. 9-style energy results to the activity model?

    Not a paper figure: the paper prices every PE as busy every cycle
    (``activity = 1.0``).  The :class:`~repro.core.activity.
    UtilizationActivity` model instead derates each layer's datapath
    energy by its occupied-PE tiling fraction — edge tiles underfill the
    R x C array — which lowers absolute energies without touching any
    timing number.  This experiment runs the paper's CNN suite (plus the
    transformer workloads) under both models and tabulates the average
    utilization, the ArrayFlex energy under each model and the EDP gain
    shift, quantifying how much headroom the constant-activity assumption
    leaves on the table per workload.
    """

    experiment_id = "activity"
    paper_reference = {
        "claim": (
            "beyond the paper: the paper's activity=1.0 assumption is the "
            "upper bound; tiling-utilization derating lowers datapath energy "
            "on every layer that does not tile the array exactly"
        )
    }

    def __init__(
        self,
        sizes: tuple[int, ...] = (128, 256),
        workloads: list | None = None,
        technology: TechnologyModel | None = None,
        backend: ExecutionBackend | str | None = None,
    ):
        if workloads is None:
            from repro.workloads import get_suite

            workloads = list(model_zoo().values()) + list(get_suite("transformers"))
        self.sizes = sizes
        self.workloads = workloads
        self.technology = technology or TechnologyModel.default_28nm()
        self.backend = create_backend(backend, default="batched")

    def run(self) -> ActivitySensitivityResult:
        """Tabulate both activity models at every size via an ablation study.

        Declared on the :class:`~repro.eval.ablation.AblationStudy`
        engine: the activity model and the array geometry are the two
        components, ``pairwise=True`` fills in the full (model x size)
        grid, and ``conventional=True`` pairs every run with its
        fixed-pipeline baseline.  The entries (and the rendered tables)
        are bit-identical to the pre-engine hand-written loop — same
        backend calls, same schedules, same division order.
        """
        from repro.eval.ablation import AblationStudy, Component

        base = self.sizes[0]
        components = [Component("activity_model", "constant", ("utilization",))]
        if len(self.sizes) > 1:
            components.append(
                Component(
                    "geometry",
                    (base, base),
                    tuple((size, size) for size in self.sizes[1:]),
                )
            )
        study = AblationStudy(
            components=components,
            fixed={
                "backend": self.backend,
                "workloads": tuple(self.workloads),
                "technology": self.technology,
            },
            pairwise=True,
            totals_only=False,
            conventional=True,
        )
        outcome = study.run()
        by_key = {
            (
                run.settings["activity_model"],
                run.settings["geometry"],
            ): run
            for run in outcome.runs
        }
        entries = []
        for size in self.sizes:
            constant_run = by_key[("constant", (size, size))]
            derated_run = by_key[("utilization", (size, size))]
            for index in range(len(self.workloads)):
                constant = constant_run.workloads[index].result
                derated = derated_run.workloads[index].result
                constant_conv = constant_run.workloads[index].conventional
                derated_conv = derated_run.workloads[index].conventional
                entries.append(
                    ActivitySensitivityEntry(
                        workload_name=constant.model_name,
                        rows=size,
                        cols=size,
                        average_utilization=derated.average_utilization(),
                        constant_energy_nj=constant.total_energy_nj,
                        utilization_energy_nj=derated.total_energy_nj,
                        constant_edp_gain=(
                            constant_conv.energy_delay_product
                            / constant.energy_delay_product
                        ),
                        utilization_edp_gain=(
                            derated_conv.energy_delay_product
                            / derated.energy_delay_product
                        ),
                    )
                )
        return ActivitySensitivityResult(entries=entries)

    def render(self, result: ActivitySensitivityResult | None = None) -> str:
        result = result or self.run()
        blocks = []
        for size in self.sizes:
            rows = [
                (
                    entry.workload_name,
                    format_percent(entry.average_utilization),
                    entry.constant_energy_nj / 1000.0,
                    entry.utilization_energy_nj / 1000.0,
                    format_percent(entry.energy_reduction),
                    format_ratio(entry.constant_edp_gain),
                    format_ratio(entry.utilization_edp_gain),
                )
                for entry in result.by_size(size)
            ]
            blocks.append(
                format_table(
                    [
                        "workload",
                        "avg util",
                        "E const (uJ)",
                        "E util (uJ)",
                        "energy cut",
                        "EDP gain const",
                        "EDP gain util",
                    ],
                    rows,
                    title=(
                        f"Activity sensitivity -- constant vs utilization "
                        f"activity, {size}x{size} SAs"
                    ),
                )
            )
        return "\n\n".join(blocks)


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


# ---------------------------------------------------------------------- #
def all_experiments() -> list[object]:
    """Default instances of every experiment (used by docs and smoke tests)."""
    return [
        Fig5Experiment(layer_index=20),
        Fig5Experiment(layer_index=28),
        Fig6Experiment(),
        Fig7Experiment(),
        Fig8Experiment(),
        Fig9Experiment(),
        TransformerSuiteExperiment(),
        ActivitySensitivityExperiment(),
        AblationExperiment(),
        Eq7ValidationExperiment(),
        ClockFrequencyExperiment(),
        CsaAblationExperiment(),
        DirectionAblationExperiment(),
    ]
