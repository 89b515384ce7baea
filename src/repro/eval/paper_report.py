"""Generator of the measured-vs-paper report (EXPERIMENTS.md).

``EXPERIMENTS.md`` records, for every table and figure of the paper's
evaluation, what the paper reports and what this reproduction measures.
Because every number comes from the experiment harness, the document can be
regenerated at any time with::

    python examples/generate_experiments_report.py

which calls :func:`generate_experiments_markdown` and overwrites the file.
"""

from __future__ import annotations

from repro.eval.experiments import (
    GridRow,
    comparison_grid,
    csa_ablation,
    direction_ablation,
    eq7_validation,
    fig5_depth_sweep,
    fig6_area,
    operating_points,
    render_fig5,
    render_fig6,
    shallow_layer_savings,
    value_range,
)
from repro.eval.report import format_percent, format_ratio
from repro.nn.models import model_zoo
from repro.workloads import get_suite


def _fig5_section() -> list[str]:
    lines = ["## Fig. 5 — execution time vs collapse depth (132x132 SA)", ""]
    for layer_index, paper_best in ((20, 2), (28, 4)):
        result = fig5_depth_sweep(layer_index)
        lines.append(
            f"* **Layer {layer_index}** (M, N, T) = {result.gemm.as_tuple()}: "
            f"paper minimum at k = {paper_best}; measured minimum at "
            f"k = {result.best_depth} "
            f"({format_percent(result.best_saving)} faster than the conventional SA)."
        )
        lines.append("")
        lines.append("```")
        lines.append(render_fig5(result))
        lines.append("```")
        lines.append("")
    return lines


def _fig6_section() -> list[str]:
    result = fig6_area()
    return [
        "## Fig. 6 — PE area overhead of reconfigurability",
        "",
        f"* Paper: ~16% per-PE overhead. Measured: "
        f"{format_percent(result.pe_overhead)} "
        f"(structural gate-count share {format_percent(result.structural_overhead)}, "
        "the rest calibrated layout/clock-gating/config-distribution overhead).",
        "",
        "```",
        render_fig6(result),
        "```",
        "",
    ]


def _fig7_section(row: GridRow) -> list[str]:
    shallow = shallow_layer_savings(row)
    histogram = row.arrayflex.depth_histogram()
    return [
        "## Fig. 7 — per-layer execution time of ConvNeXt (128x128 SA)",
        "",
        f"* Paper: total saving ~11%, per-layer savings 1.5%–26%, early layers at "
        "k = 1, middle layers at k = 2, late layers at k = 4.",
        f"* Measured: total saving {format_percent(row.latency_saving)}; shallow-layer "
        f"savings {format_percent(min(shallow))}–{format_percent(max(shallow))}; "
        f"layers per mode {dict(sorted(histogram.items()))} "
        "(early layers select k = 1, the last stage selects k = 4).",
        "",
        "The per-layer table is long; regenerate it with "
        "`python examples/convnext_per_layer.py`.",
        "",
    ]


def _fig8_section(rows: list[GridRow]) -> list[str]:
    lines = [
        "## Fig. 8 — total execution time of ResNet-34 / MobileNetV1 / ConvNeXt-T",
        "",
        "* Paper: ArrayFlex lowers end-to-end latency by 9%–11%, with larger savings "
        "on the larger array.",
        "",
        "| array | model | conventional (ms) | ArrayFlex (ms) | measured saving |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row.arrayflex.rows}x{row.arrayflex.cols} | {row.model_name} | "
            f"{row.conventional.total_time_ms:.3f} | {row.arrayflex.total_time_ms:.3f} | "
            f"{format_percent(row.latency_saving)} |"
        )
    low, high = value_range(rows, "latency_saving")
    lines += [
        "",
        f"Measured savings range: {format_percent(low)}–{format_percent(high)}.",
        "",
    ]
    return lines


def _fig9_section(rows: list[GridRow]) -> list[str]:
    lines = [
        "## Fig. 9 — average power and energy-delay product",
        "",
        "* Paper: power savings of 13%–15% (128x128) and 17%–23% (256x256); EDP gain "
        "1.4x–1.8x; ArrayFlex consumes slightly more power than the conventional SA "
        "when both run the normal pipeline.",
        "",
        "| array | model | conventional (W) | ArrayFlex (W) | power saving | EDP gain |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row.arrayflex.rows}x{row.arrayflex.cols} | {row.model_name} | "
            f"{row.conventional.average_power_mw / 1000:.1f} | "
            f"{row.arrayflex.average_power_mw / 1000:.1f} | "
            f"{format_percent(row.power_saving)} | {format_ratio(row.edp_gain)} |"
        )
    for size in (128, 256):
        low, high = value_range(
            [row for row in rows if row.arrayflex.rows == size], "power_saving"
        )
        lines.append("")
        lines.append(
            f"Measured {size}x{size} power savings: "
            f"{format_percent(low)}–{format_percent(high)}."
        )
    edp_low, edp_high = value_range(rows, "edp_gain")
    lines += [
        "",
        f"Measured EDP gains: {format_ratio(edp_low)}–{format_ratio(edp_high)}.",
        "",
    ]
    return lines


def _transformer_section(rows: list[GridRow]) -> list[str]:
    lines = [
        "## Beyond the paper — transformer workloads",
        "",
        "* The paper evaluates CNNs only, but its per-layer mode decision is "
        "defined on raw GEMM shapes; the `transformers` registry suite "
        "(BERT-Base prefill, ViT-B/16, GPT-2-style decode) runs through the "
        "same backends unchanged.  Decode streams T = batch rows — the "
        "small-T regime where deep collapse modes pay off most.",
        "",
        "| array | workload | phase | conventional (ms) | ArrayFlex (ms) | measured saving |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row.arrayflex.rows}x{row.arrayflex.cols} | {row.model_name} | {row.phase} | "
            f"{row.conventional.total_time_ms:.3f} | {row.arrayflex.total_time_ms:.3f} | "
            f"{format_percent(row.latency_saving)} |"
        )
    low, high = value_range(rows, "latency_saving")
    lines += [
        "",
        f"Measured savings range: {format_percent(low)}–{format_percent(high)} "
        "(largest for decode, as the fill/drain analysis predicts).",
        "",
    ]
    return lines


def _activity_section(grid: list[GridRow]) -> list[str]:
    lines = [
        "## Beyond the paper — activity-model sensitivity",
        "",
        "* The paper prices every PE as busy every cycle (`activity = 1.0`); "
        "that stays the default here and all tables above use it.  The "
        "`utilization` activity model (`--activity-model utilization`) instead "
        "derates each layer's datapath energy by its occupied-PE tiling "
        "fraction — edge tiles underfill the R x C array — leaving timing "
        "untouched.  The table quantifies how much energy headroom the "
        "constant-activity assumption leaves per workload.",
        "",
        "| array | workload | avg utilization | E constant (uJ) | E utilization (uJ) | energy cut | EDP gain (const → util) |",
        "|---|---|---|---|---|---|---|",
    ]
    constant = [row for row in grid if row.activity_model == "constant"]
    derated = [row for row in grid if row.activity_model == "utilization"]
    for const, util in zip(constant, derated):
        const_energy = const.arrayflex.total_energy_nj
        util_energy = util.arrayflex.total_energy_nj
        lines.append(
            f"| {const.arrayflex.rows}x{const.arrayflex.cols} | {const.model_name} | "
            f"{format_percent(util.arrayflex.average_utilization())} | "
            f"{const_energy / 1000.0:.1f} | "
            f"{util_energy / 1000.0:.1f} | "
            f"{format_percent(1.0 - util_energy / const_energy)} | "
            f"{format_ratio(const.edp_gain)} → "
            f"{format_ratio(util.edp_gain)} |"
        )
    lines += [
        "",
        "Workloads whose GEMMs tile the array exactly (utilization 100%) are "
        "bit-identical under both models; everything else gets strictly cheaper "
        "datapath energy, most visibly on the 256x256 array where edge tiles "
        "dominate small layers.",
        "",
    ]
    return lines


def _eq7_section() -> list[str]:
    result = eq7_validation()
    return [
        "## Eq. (7) — analytical vs discrete optimal collapse depth",
        "",
        "* Paper: the closed form approximates the per-layer optimum "
        "\"fairly accurately\".",
        f"* Measured: rounding k̂ to the supported mode set matches the discrete "
        f"argmin for {format_percent(result.agreement_rate)} of the "
        f"{len(result.entries)} layers of the three CNNs (128x128 SA).",
        "",
    ]


def _clock_section() -> list[str]:
    result = operating_points()
    return [
        "## Operating points (Section IV) and STA cross-check",
        "",
        "| design point | paper (GHz) | measured (GHz) | Eq. 5 period (ps) | STA period (ps) |",
        "|---|---|---|---|---|",
        f"| conventional | 2.0 | {result.conventional_ghz:.1f} | — | — |",
        f"| ArrayFlex k=1 | 1.8 | {result.mode_ghz[1]:.1f} | "
        f"{result.eq5_period_ps[1]:.0f} | {result.sta_period_ps[1]:.0f} |",
        f"| ArrayFlex k=2 | 1.7 | {result.mode_ghz[2]:.1f} | "
        f"{result.eq5_period_ps[2]:.0f} | {result.sta_period_ps[2]:.0f} |",
        f"| ArrayFlex k=4 | 1.4 | {result.mode_ghz[4]:.1f} | "
        f"{result.eq5_period_ps[4]:.0f} | {result.sta_period_ps[4]:.0f} |",
        "",
    ]


def _ablation_section() -> list[str]:
    csa = csa_ablation()
    directions = direction_ablation()
    lines = [
        "## Ablations",
        "",
        "### Collapsing without the carry-save adders (Section III-B)",
        "",
        "| mode | period w/ CSA (ps) | period w/o CSA (ps) | ConvNeXt saving w/ CSA | w/o CSA |",
        "|---|---|---|---|---|",
    ]
    for entry in csa.entries:
        lines.append(
            f"| k={entry.collapse_depth} | {entry.period_with_csa_ps:.0f} | "
            f"{entry.period_without_csa_ps:.0f} | "
            f"{format_percent(entry.model_saving_with_csa)} | "
            f"{format_percent(entry.model_saving_without_csa)} |"
        )
    lines += [
        "",
        "Without the 3:2 carry-save stage, the deeper collapse modes slow the clock so "
        "much that the end-to-end savings disappear — the mechanism the paper's PE "
        "design exists to avoid.",
        "",
        "### Collapse directions",
        "",
        "| mode | normal cycles | vertical-only | horizontal-only | both |",
        "|---|---|---|---|---|",
    ]
    for entry in directions.entries:
        lines.append(
            f"| k={entry.collapse_depth} | {entry.cycles_conventional} | "
            f"{entry.cycles_vertical_only} | {entry.cycles_horizontal_only} | "
            f"{entry.cycles_both} |"
        )
    lines.append("")
    return lines


def _importance_section() -> list[str]:
    from repro.eval.ablation import _format_delta, default_study, format_value

    study = default_study()
    result = study.run()
    lines = [
        "## Which knob mattered — design-space importance",
        "",
        "* The declarative ablation harness (`python -m repro ablate`, "
        "`docs/ablation.md`) flips one design knob at a time off a pinned "
        "baseline and ranks each component by its worst-case EDP delta.  "
        "Baseline: the paper's "
        f"{format_value('geometry', study.baseline_settings()['geometry'])} "
        "array, constant activity, depth menu "
        f"{format_value('depths', study.baseline_settings()['depths'])}, "
        "CNN suite, batched backend.",
        "",
        "| rank | component | flip | EDP delta | latency delta | energy delta |",
        "|---|---|---|---|---|---|",
    ]
    for entry in result.ranking:
        driver = entry.driver
        if driver is None:
            lines.append(f"| {entry.rank} | {entry.component} | — | — | — | — |")
            continue
        lines.append(
            f"| {entry.rank} | {entry.component} | {driver.run_id} | "
            f"{_format_delta(driver.deltas['edp'])} | "
            f"{_format_delta(driver.deltas['latency'])} | "
            f"{_format_delta(driver.deltas['energy'])} |"
        )
    lines += [
        "",
        "The ranking is deterministic (same study + seed → the same table, "
        "whatever the executor or submission order) and regenerates with "
        "`python -m repro experiment ablation` or `python -m repro ablate`.",
        "",
    ]
    return lines


def generate_experiments_markdown() -> str:
    """Build the full EXPERIMENTS.md content from the experiment harness."""
    header = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Reproduction of the evaluation of *ArrayFlex: A Systolic Array Architecture "
        "with Configurable Transparent Pipelining* (DATE 2023).  Every number below "
        "is produced by the experiment harness in `repro.eval`; regenerate this file "
        "with `python examples/generate_experiments_report.py`.",
        "",
        "Absolute times and powers are not expected to match the authors' 28 nm "
        "implementation (the substrate here is a calibrated analytical + cycle-level "
        "model, see DESIGN.md); the comparisons below check that the *shape* of every "
        "result holds: who wins, by roughly what factor, and where the crossovers "
        "fall.",
        "",
    ]
    cnns = list(model_zoo().values())
    transformers = get_suite("transformers")
    grid = comparison_grid(cnns + transformers, activity_models=("constant", "utilization"))
    constant = [row for row in grid if row.activity_model == "constant"]
    cnn_rows = [row for row in constant if row.phase == "-"]
    fig7_row = next(row for row in cnn_rows if row.model_name == "ConvNeXt-T")
    sections = (
        header
        + _clock_section()
        + _fig5_section()
        + _fig6_section()
        + _fig7_section(fig7_row)
        + _fig8_section(cnn_rows)
        + _fig9_section(cnn_rows)
        + _transformer_section([row for row in constant if row.phase != "-"])
        + _activity_section(grid)
        + _eq7_section()
        + _ablation_section()
        + _importance_section()
    )
    return "\n".join(sections).rstrip() + "\n"


def write_experiments_markdown(path: str) -> str:
    """Generate and write EXPERIMENTS.md; returns the content written."""
    content = generate_experiments_markdown()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return content
