"""Evaluation harness: one experiment per table/figure of the paper.

Every figure of the paper's evaluation (Section IV) has a corresponding
experiment class here, plus the ablations DESIGN.md calls out:

===============  ========================================================
Experiment       Paper artifact
===============  ========================================================
``Fig5``         Fig. 5 -- execution time vs collapse depth for ResNet-34
                 layers 20 and 28 on a 132x132 array.
``Fig6``         Fig. 6 -- PE area overhead of reconfigurability.
``Fig7``         Fig. 7 -- per-layer execution time of ConvNeXt (128x128).
``Fig8``         Fig. 8 -- normalized total execution time of three CNNs
                 on 128x128 and 256x256 arrays.
``Fig9``         Fig. 9 -- average power (and EDP) of both designs.
``Eq7``          Eq. (7) -- analytical vs discrete optimal collapse depth.
``Clock``        Section IV operating points (2.0/1.8/1.7/1.4 GHz) and the
                 STA cross-check of Eq. (5).
``CsaAblation``  Section III-B -- what collapsing would cost without the
                 carry-save adders.
``Directions``   Vertical-only vs horizontal-only vs both collapsing.
===============  ========================================================
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
    Fig7Experiment,
    Fig8Experiment,
    Fig9Experiment,
    all_experiments,
)
from repro.eval.report import format_ratio, format_table, normalize_series
from repro.eval.sweep import collapse_depth_sweep

__all__ = [
    "Fig5Experiment",
    "Fig6Experiment",
    "Fig7Experiment",
    "Fig8Experiment",
    "Fig9Experiment",
    "Eq7ValidationExperiment",
    "ClockFrequencyExperiment",
    "CsaAblationExperiment",
    "DirectionAblationExperiment",
    "AblationExperiment",
    "AblationStudy",
    "Component",
    "StudyResult",
    "default_study",
    "all_experiments",
    "format_table",
    "format_ratio",
    "normalize_series",
    "collapse_depth_sweep",
]
