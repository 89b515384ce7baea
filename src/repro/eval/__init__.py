"""Evaluation harness: the paper's figures and tables, plus ablations.

Every artifact is a function computing its result plus a ``render_*``
function printing it, both in :mod:`repro.eval.experiments`.  Figs. 7-9
and the two beyond-paper suites compare ArrayFlex with the
fixed-pipeline SA on whole workloads; they are selections of one table,
:func:`comparison_grid` (size x activity model x workload):

=========================  ==============================================
Artifact                   Source
=========================  ==============================================
Fig. 5                     ``fig5_depth_sweep`` / ``render_fig5`` --
                           execution time vs collapse depth for ResNet-34
                           layers 20 and 28 on a 132x132 array.
Fig. 6                     ``fig6_area`` / ``render_fig6`` -- PE area
                           overhead of reconfigurability.
Fig. 7                     ``render_fig7`` -- per-layer execution time
                           of ConvNeXt (128x128).
Fig. 8                     ``render_fig8`` -- total execution time of
                           three CNNs on 128x128 and 256x256 arrays.
Fig. 9                     ``render_fig9`` -- average power (and EDP) of
                           both designs.
Transformer suite          ``render_transformers`` -- the Fig. 8/9
                           comparison on BERT-Base, ViT-B/16 and GPT-2
                           decode.
Activity study             ``render_activity`` -- constant vs
                           utilization activity energies.
Eq. (7)                    ``eq7_validation`` / ``render_eq7`` --
                           analytical vs discrete optimal collapse depth.
Operating points           ``operating_points`` / ``render_clock`` --
                           Section IV (2.0/1.8/1.7/1.4 GHz) and the STA
                           cross-check of Eq. (5).
CSA ablation               ``csa_ablation`` / ``render_abl_csa`` --
                           Section III-B: what collapsing would cost
                           without the carry-save adders.
Collapse directions        ``direction_ablation`` / ``render_abl_dirs``
                           -- vertical-only vs horizontal-only vs both.
Knob importance            ``default_study().run().render()`` -- the
                           stock :class:`AblationStudy` ranking.
=========================  ==============================================
"""

from repro.eval.ablation import (
    AblationStudy,
    Component,
    StudyResult,
    default_study,
)
from repro.eval.experiments import (
    GridRow,
    comparison_grid,
    csa_ablation,
    direction_ablation,
    eq7_validation,
    fig5_depth_sweep,
    fig6_area,
    operating_points,
)
from repro.eval.report import format_ratio, format_table
from repro.eval.sweep import collapse_depth_sweep

__all__ = [
    "fig5_depth_sweep",
    "fig6_area",
    "GridRow",
    "comparison_grid",
    "eq7_validation",
    "operating_points",
    "csa_ablation",
    "direction_ablation",
    "AblationStudy",
    "Component",
    "StudyResult",
    "default_study",
    "format_table",
    "format_ratio",
    "collapse_depth_sweep",
]
