"""The per-(GEMM, configuration) decision record and its store codec.

:class:`~repro.backends.batched.BatchedCachedBackend` returns the outcome
of one mode decision as a :class:`Decision` and, with a
:class:`~repro.backends.store.DecisionStore` attached, writes it there as
one row.

On disk a shard is one NumPy structured array (:data:`DECISION_DTYPE`):
the three GEMM dimensions followed by the fifteen columns of
:func:`decision_to_row`.  Every column is an ``int64`` or ``float64``, so
values round-trip bit-exactly.  The array form is what makes the store's
zero-copy read path possible: shards are memory-mapped read-only and rows
are materialised one at a time through :func:`record_to_row`, only when a
backend's batch asks for that shape.

The row layout is versioned through :data:`repro.backends.store.
DECISION_MODEL_VERSION`; changing it bumps that version and purges every
stale shard on the next write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import LayerMetrics
from repro.nn.gemm_mapping import GemmShape
from repro.timing.power_model import ArrayPowerBreakdown

#: Columns of one store row (see :func:`decision_to_row`): seven decision
#: scalars and the eight :class:`ArrayPowerBreakdown` components.
DECISION_ROW_WIDTH = 15

#: Where a :func:`decision_to_row` row holds the layer's execution time
#: and its total power, the two numbers a design-space sweep reads.
ROW_TIME_NS, ROW_POWER_MW = 3, 14

#: The columnar on-disk layout of one decision: the within-shard GEMM key
#: (m, n, t) followed by the :func:`decision_to_row` columns, in order.
DECISION_DTYPE = np.dtype(
    [
        ("m", np.int64),
        ("n", np.int64),
        ("t", np.int64),
        ("collapse_depth", np.int64),
        ("cycles", np.int64),
        ("clock_frequency_ghz", np.float64),
        ("execution_time_ns", np.float64),
        ("analytical_depth", np.float64),
        ("activity", np.float64),
        ("array_utilization", np.float64),
        ("power_multiplier", np.float64),
        ("power_carry_propagate_adder", np.float64),
        ("power_carry_save_adder", np.float64),
        ("power_bypass_muxes", np.float64),
        ("power_register_data", np.float64),
        ("power_register_clock", np.float64),
        ("power_leakage", np.float64),
        ("power_total_mw", np.float64),
    ]
)


@dataclass(frozen=True)
class Decision:
    """Cached outcome of one (GEMM, configuration) mode decision."""

    collapse_depth: int
    cycles: int
    clock_frequency_ghz: float
    execution_time_ns: float
    analytical_depth: float
    activity: float
    array_utilization: float
    power: ArrayPowerBreakdown

    @property
    def power_mw(self) -> float:
        return self.power.total_mw


def decision_to_row(decision: Decision) -> list:
    """The store row of one decision.

    Every column round-trips bit-exactly through the columnar codec, so a
    decision read back from disk equals the freshly solved one.  The row
    layout is versioned through :data:`repro.backends.store.
    DECISION_MODEL_VERSION` — changing it (as the activity-aware refactor
    did) bumps that version and purges every stale shard.
    """
    power = decision.power
    return [
        decision.collapse_depth,
        decision.cycles,
        decision.clock_frequency_ghz,
        decision.execution_time_ns,
        decision.analytical_depth,
        decision.activity,
        decision.array_utilization,
        power.multiplier,
        power.carry_propagate_adder,
        power.carry_save_adder,
        power.bypass_muxes,
        power.register_data,
        power.register_clock,
        power.leakage,
        power.total_mw,
    ]


def decision_from_row(row: list) -> Decision:
    return Decision(
        collapse_depth=int(row[0]),
        cycles=int(row[1]),
        clock_frequency_ghz=float(row[2]),
        execution_time_ns=float(row[3]),
        analytical_depth=float(row[4]),
        activity=float(row[5]),
        array_utilization=float(row[6]),
        power=ArrayPowerBreakdown(
            multiplier=float(row[7]),
            carry_propagate_adder=float(row[8]),
            carry_save_adder=float(row[9]),
            bypass_muxes=float(row[10]),
            register_data=float(row[11]),
            register_clock=float(row[12]),
            leakage=float(row[13]),
            total_mw=float(row[14]),
        ),
    )


def rows_to_records(decisions: dict[tuple, list]) -> np.ndarray:
    """Encode ``{(m, n, t): row}`` decisions as one structured array.

    The inverse of :func:`record_to_row` per entry; malformed keys or rows
    are rejected loudly (a store must never persist a shard it cannot read
    back).
    """
    records = np.empty(len(decisions), dtype=DECISION_DTYPE)
    for position, (key, row) in enumerate(decisions.items()):
        check_entry(key, row)
        records[position] = (int(key[0]), int(key[1]), int(key[2]), *row)
    return records


def check_entry(key: tuple, row: list) -> None:
    """Reject a malformed ``(m, n, t) -> row`` shard entry with ValueError."""
    if not (isinstance(key, tuple) and len(key) == 3):
        raise ValueError(f"within-shard key must be an (m, n, t) tuple, got {key!r}")
    if len(row) != DECISION_ROW_WIDTH:
        raise ValueError(
            f"decision row must have {DECISION_ROW_WIDTH} columns, got {len(row)}"
        )


def record_to_row(record: np.void) -> list:
    """Decode one structured-array record back into the canonical row.

    Bit-exact: every column is an ``int64``/``float64``, so the list this
    returns equals the one :func:`rows_to_records` encoded — ready for
    :func:`decision_from_row`.
    """
    # .item() already yields native Python ints/floats per the dtype, so
    # slicing the tuple is the whole decode (this runs once per distinct
    # shape of a batch on the warm path — keep it lean).
    return list(record.item()[3:])


def records_index(array: np.ndarray) -> dict[tuple[int, int, int], int]:
    """Map every (m, n, t) key of a shard array to its row position.

    This is the only whole-shard pass of the warm read path: three column
    reads plus one dict build, no per-row Python object materialisation.
    Later duplicates win, matching dict-merge semantics.
    """
    return dict(
        zip(
            zip(array["m"].tolist(), array["n"].tolist(), array["t"].tolist()),
            range(len(array)),
        )
    )


def decision_to_layer(index: int, gemm: GemmShape, decision: Decision) -> LayerMetrics:
    """Rehydrate one decision into the standard per-layer record."""
    return LayerMetrics(
        index=index,
        gemm=gemm,
        collapse_depth=decision.collapse_depth,
        cycles=decision.cycles,
        clock_frequency_ghz=decision.clock_frequency_ghz,
        execution_time_ns=decision.execution_time_ns,
        activity=decision.activity,
        array_utilization=decision.array_utilization,
        power=decision.power,
        analytical_depth=decision.analytical_depth,
    )
