"""Shared backend-parity harness.

Every backend registered in :data:`repro.backends.BACKENDS` must produce
*numerically interchangeable* schedules: the batched backend bit-exactly,
the cycle-accurate backend because the simulator is cycle-exact with
respect to Eqs. (1)/(3).  Instead of one hand-written test class per
backend, this module defines the *matrix* — every registered backend x a
set of workloads chosen to exercise edge tiles, repeated shapes, tiny
and probe-length streamed dimensions x several array configurations —
and the assertion bundle each cell must pass against the analytical
reference.

``tests/test_backends.py`` parametrises over :func:`parity_cases` and
:data:`BACKEND_FACTORIES`; a future backend added to ``BACKENDS`` gets
full parity coverage by adding one factory line here (and the
registry-completeness test fails loudly until it does).

The workloads are deliberately small: the cycle-accurate backend
simulates real tiles, so the matrix keeps T and the array sizes in the
regime where a full parity sweep costs well under a second per backend.
"""

from repro.backends import (
    AnalyticalBackend,
    BatchedCachedBackend,
    CycleAccurateBackend,
    model_totals,
    suite_totals,
)
from repro.core.config import ArrayFlexConfig
from repro.nn.gemm_mapping import GemmShape

#: One factory per registered backend, building a test-tuned instance.
#: ``tests/test_backends.py`` asserts this dict covers ``BACKENDS``
#: exactly, so registering a backend without harness coverage fails.
BACKEND_FACTORIES = {
    "analytical": AnalyticalBackend,
    "batched": BatchedCachedBackend,
    "cycle": CycleAccurateBackend,
}


def make_backend(name: str):
    """Fresh test-tuned instance of one registered backend."""
    return BACKEND_FACTORIES[name]()


def parity_configs() -> dict[str, ArrayFlexConfig]:
    """The configuration axis of the parity matrix."""
    return {
        "8x8": ArrayFlexConfig(rows=8, cols=8, supported_depths=(1, 2, 4)),
        "16x16-k12": ArrayFlexConfig(rows=16, cols=16, supported_depths=(1, 2)),
        # An activity model that prices per-layer utilization: parity must
        # hold for the whole LayerMetrics record, not just the timing.
        "8x8-util": ArrayFlexConfig(
            rows=8, cols=8, supported_depths=(1, 2, 4),
            activity_model="utilization",
        ),
    }


def parity_workloads() -> dict[str, list[GemmShape]]:
    """The workload axis: edge tiles, repeats, tiny and probe-length T."""
    return {
        # Edge tiles in every combination (N' and/or M' partial), plus an
        # exactly-tiling layer and a repeated shape.
        "mixed": [
            GemmShape(m=20, n=33, t=6, name="edge-both"),
            GemmShape(m=16, n=16, t=40, name="exact"),
            GemmShape(m=7, n=50, t=3, name="edge-n"),
            GemmShape(m=64, n=12, t=17, name="edge-m"),
            GemmShape(m=20, n=33, t=6, name="edge-both-repeat"),
        ],
        # T far beyond the cycle backend's calibration probes: exercises
        # the calibrated affine-in-T extrapolation.
        "tall-t": [
            GemmShape(m=24, n=40, t=300, name="tall-a"),
            GemmShape(m=12, n=20, t=150, name="tall-b"),
        ],
        # Degenerate dimensions (T=1 decode-style rows, single tiles).
        "tiny": [
            GemmShape(m=3, n=5, t=1, name="tiny-a"),
            GemmShape(m=8, n=8, t=2, name="tiny-b"),
        ],
    }


def parity_cases() -> list[tuple[str, str, str]]:
    """All (case_id, workload_key, config_key) cells of the matrix."""
    return [
        (f"{workload_key}-{config_key}", workload_key, config_key)
        for workload_key in parity_workloads()
        for config_key in parity_configs()
    ]


def assert_backend_parity(backend, workload, config, reference=None) -> None:
    """The assertion bundle one (backend, workload, config) cell must pass.

    The reference is the analytical backend (the closed forms the paper
    states); ``LayerMetrics`` equality covers mode decisions, cycles,
    operating points, activity, utilization and the full per-component
    power breakdown.
    """
    reference = reference or AnalyticalBackend()
    name = "parity"

    expected = reference.schedule_model(workload, config, model_name=name)
    actual = backend.schedule_model(workload, config, model_name=name)
    assert actual.layers == expected.layers
    assert actual.total_cycles == expected.total_cycles
    assert actual.total_time_ns == expected.total_time_ns
    assert actual.total_energy_nj == expected.total_energy_nj

    conventional = backend.schedule_model_conventional(
        workload, config, model_name=name
    )
    assert conventional.layers == reference.schedule_model_conventional(
        workload, config, model_name=name
    ).layers

    single = backend.schedule_layer(workload[0], config, index=1)
    assert single == reference.schedule_layer(workload[0], config, index=1)

    totals = model_totals(backend, workload, config, model_name=name)
    assert totals.time_ns == expected.total_time_ns
    assert totals.energy_nj == expected.total_energy_nj

    [(arrayflex, baseline)] = suite_totals(backend, [workload], config)
    assert arrayflex == totals
    assert baseline == model_totals(
        reference, workload, config, conventional=True, model_name=name
    )
