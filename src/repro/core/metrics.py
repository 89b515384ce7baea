"""The structured per-layer result model shared by every backend.

:class:`LayerMetrics` is the system's central data type: one record per
scheduled layer carrying the decision (collapse depth), the timing
(cycles, frequency, time), the activity inputs of the power model
(effective datapath activity and the geometric array utilization it was
derived from) and a per-component :class:`~repro.timing.power_model.
ArrayPowerBreakdown` instead of a single collapsed scalar, with the
collapsed scalars (``power_mw``, ``energy_nj``) as properties.

:class:`ModelSchedule` aggregates the records of one run and now also
exposes run-level energy composition (:meth:`ModelSchedule.
energy_breakdown_nj`) and time-weighted activity/utilization averages.

:func:`resolve_workload` — the single normalisation point for "what is a
model" — also lives here, next to the data model every backend builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.core.energy import RunEnergyReport
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import CnnModel
from repro.timing.power_model import ArrayPowerBreakdown

if TYPE_CHECKING:  # runtime dispatch is duck-typed; see resolve_workload
    from repro.workloads.base import Workload

#: Anything every scheduling entry point accepts as a workload: a CNN
#: layer table, any object satisfying the :class:`~repro.workloads.base.
#: Workload` protocol (transformer traces, pre-lowered GEMM workloads),
#: an explicit GEMM list, or a :mod:`repro.workloads` registry name.
WorkloadArgument = Union[
    CnnModel, "Workload", Sequence[GemmShape], str
]


class InvalidWorkloadError(TypeError):
    """A workload argument that cannot be interpreted as a workload at all.

    Raised (instead of a generic falsy-check surprise) when the ``model``
    argument is neither a registry name, nor an object with a ``gemms()``
    lowering, nor an iterable of GEMM shapes.  An *empty* workload is a
    different, legitimate-type failure and stays a :class:`ValueError`.
    """


def resolve_workload(
    model: WorkloadArgument, model_name: str | None = None
) -> tuple[list[GemmShape], str]:
    """Normalise a workload argument into ``(gemms, name)``.

    Accepts a :class:`CnnModel`, any object with a ``gemms()`` lowering
    and a ``name`` (the :class:`~repro.workloads.base.Workload`
    protocol), a registry name string (resolved through
    :func:`repro.workloads.get_workload`, including ``@bs<N>`` batch
    suffixes), or an explicit iterable of GEMM shapes.  Shared by every
    execution backend and the serving protocol, so all entry points agree
    on what a "model" is.

    Raises :class:`ValueError` when the workload resolves to an *empty*
    GEMM list, and :class:`InvalidWorkloadError` (a :class:`TypeError`)
    naming the offending ``model`` argument when it is not a workload
    shape at all — the two failure modes are deliberately distinct.
    """
    if isinstance(model, str):
        from repro.workloads import get_workload  # deferred: heavier import

        model = get_workload(model)
    gemms = getattr(model, "gemms", None)
    if callable(gemms):
        name = model_name or getattr(model, "name", "custom")
        resolved = list(gemms())
        if not resolved:
            raise ValueError(f"workload {name!r} lowered to an empty list of GEMMs")
        return resolved, name
    try:
        resolved = list(model)
    except TypeError:
        raise InvalidWorkloadError(
            f"model argument {model!r} of type {type(model).__name__} is not a "
            "workload: expected a CnnModel, a Workload object, a repro.workloads "
            "registry name, or an iterable of GemmShape"
        ) from None
    if not resolved:
        raise ValueError(
            "model argument resolved to an empty list of GEMMs "
            "(cannot schedule an empty workload)"
        )
    return resolved, model_name or "custom"


@dataclass(frozen=True)
class LayerMetrics:
    """Everything decided and measured for one layer.

    ``activity`` is the effective datapath activity the power model was
    evaluated at (``config.activity`` x the configured activity model's
    per-layer factor); ``array_utilization`` is the geometric occupied-PE
    fraction of the GEMM-to-array tiling, recorded for every layer
    regardless of which activity model priced it.  ``power`` carries the
    per-component mW breakdown; ``power_mw``/``energy_nj`` reproduce the
    historical flat record's API exactly.
    """

    index: int
    gemm: GemmShape
    collapse_depth: int
    cycles: int
    clock_frequency_ghz: float
    execution_time_ns: float
    activity: float
    array_utilization: float
    power: ArrayPowerBreakdown
    analytical_depth: float = 0.0

    @property
    def power_mw(self) -> float:
        """Total array power (mW) — the historical scalar, bit-identical."""
        return self.power.total_mw

    @property
    def energy_nj(self) -> float:
        return self.power_mw * self.execution_time_ns / 1000.0

    @property
    def datapath_energy_nj(self) -> float:
        """Energy of the activity-scaled datapath components only."""
        return self.power.datapath_mw * self.execution_time_ns / 1000.0

    def energy_breakdown_nj(self) -> dict[str, float]:
        """Per-component energy of this layer (nJ), plus the exact total."""
        time = self.execution_time_ns
        return {
            component: power_mw * time / 1000.0
            for component, power_mw in self.power.as_dict().items()
        }


def _in_layer_order(values: Iterable[float]) -> float:
    """``values`` added left to right, as every backend's totals path adds.

    The builtin ``sum`` compensates float rounding from Python 3.12 on,
    which would set the reference's totals apart from the engine's in the
    last bits.  Starts from the int 0, as ``sum`` does.
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass
class ModelSchedule:
    """The complete schedule of one model on one accelerator."""

    model_name: str
    accelerator: str
    rows: int
    cols: int
    layers: list[LayerMetrics] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_time_ns(self) -> float:
        return _in_layer_order(layer.execution_time_ns for layer in self.layers)

    @property
    def total_time_ms(self) -> float:
        return self.total_time_ns / 1e6

    @property
    def total_energy_nj(self) -> float:
        return _in_layer_order(layer.energy_nj for layer in self.layers)

    @property
    def average_power_mw(self) -> float:
        if self.total_time_ns == 0:
            return 0.0
        return self.total_energy_nj * 1000.0 / self.total_time_ns

    @property
    def energy_delay_product(self) -> float:
        return self.total_energy_nj * self.total_time_ns

    # ------------------------------------------------------------------ #
    def energy_breakdown_nj(self) -> dict[str, float]:
        """Run-level energy composition: per-component nJ over all layers.

        The ``"total"`` entry sums the layers' exact ``energy_nj`` terms
        (same order as :attr:`total_energy_nj`); the component entries sum
        the per-component figures, which reproduce the total up to float
        rounding (see :class:`~repro.timing.power_model.ArrayPowerBreakdown`).
        """
        composition: dict[str, float] = {}
        for layer in self.layers:
            for component, energy in layer.energy_breakdown_nj().items():
                composition[component] = composition.get(component, 0.0) + energy
        composition["total"] = self.total_energy_nj
        return composition

    def average_activity(self, total_time_ns: float | None = None) -> float:
        """Time-weighted average effective activity over the run.

        ``total_time_ns``, when given, is :attr:`total_time_ns` summed
        already by the caller.
        """
        return self._time_weighted("activity", total_time_ns)

    def average_utilization(self, total_time_ns: float | None = None) -> float:
        """Time-weighted average array utilization over the run (see
        :meth:`average_activity` for ``total_time_ns``)."""
        return self._time_weighted("array_utilization", total_time_ns)

    def _time_weighted(self, attribute: str, total: float | None) -> float:
        if total is None:
            total = self.total_time_ns
        if total == 0:
            return 0.0
        return (
            _in_layer_order(
                getattr(layer, attribute) * layer.execution_time_ns
                for layer in self.layers
            )
            / total
        )

    # ------------------------------------------------------------------ #
    def depth_histogram(self) -> dict[int, int]:
        """Number of layers executed at each collapse depth."""
        histogram: dict[int, int] = {}
        for layer in self.layers:
            histogram[layer.collapse_depth] = histogram.get(layer.collapse_depth, 0) + 1
        return histogram

    def time_share_by_depth(self) -> dict[int, float]:
        """Fraction of the run's time spent in each collapse depth."""
        total = self.total_time_ns
        shares: dict[int, float] = {}
        if total == 0:
            return shares
        for layer in self.layers:
            shares[layer.collapse_depth] = (
                shares.get(layer.collapse_depth, 0.0) + layer.execution_time_ns / total
            )
        return shares

    def to_energy_report(self) -> RunEnergyReport:
        return RunEnergyReport(
            total_time_ns=self.total_time_ns, total_energy_nj=self.total_energy_nj
        )
