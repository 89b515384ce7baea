"""Evaluation harness: the paper's figures and tables, plus ablations.

Figs. 7-9 and the two beyond-paper suites compare ArrayFlex with the
fixed-pipeline SA on whole workloads; they are selections of one table,
:func:`comparison_grid` (size x activity model x workload), each with a
``render_*`` function in :mod:`repro.eval.experiments`.  Every other
artifact has an experiment class:

=========================  ==============================================
Artifact                   Source
=========================  ==============================================
Fig. 5                     ``Fig5Experiment`` -- execution time vs
                           collapse depth for ResNet-34 layers 20 and 28
                           on a 132x132 array.
Fig. 6                     ``Fig6Experiment`` -- PE area overhead of
                           reconfigurability.
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
Eq. (7)                    ``Eq7ValidationExperiment`` -- analytical vs
                           discrete optimal collapse depth.
Operating points           ``ClockFrequencyExperiment`` -- Section IV
                           (2.0/1.8/1.7/1.4 GHz) and the STA cross-check
                           of Eq. (5).
CSA ablation               ``CsaAblationExperiment`` -- Section III-B:
                           what collapsing would cost without the
                           carry-save adders.
Collapse directions        ``DirectionAblationExperiment`` -- vertical-
                           only vs horizontal-only vs both.
Knob importance            ``AblationExperiment`` -- the stock
                           :class:`AblationStudy` ranking.
=========================  ==============================================
"""

from repro.eval.ablation import (
    AblationStudy,
    Component,
    StudyResult,
    default_study,
)
from repro.eval.experiments import (
    AblationExperiment,
    ClockFrequencyExperiment,
    CsaAblationExperiment,
    DirectionAblationExperiment,
    Eq7ValidationExperiment,
    Fig5Experiment,
    Fig6Experiment,
    GridRow,
    comparison_grid,
)
from repro.eval.report import format_ratio, format_table
from repro.eval.sweep import collapse_depth_sweep

__all__ = [
    "Fig5Experiment",
    "Fig6Experiment",
    "GridRow",
    "comparison_grid",
    "Eq7ValidationExperiment",
    "ClockFrequencyExperiment",
    "CsaAblationExperiment",
    "DirectionAblationExperiment",
    "AblationExperiment",
    "AblationStudy",
    "Component",
    "StudyResult",
    "default_study",
    "format_table",
    "format_ratio",
    "collapse_depth_sweep",
]
