"""Synthetic GEMM generators (package-level home).

The definitions live in :mod:`repro.nn.workloads` — that module predates
this package, is imported during ``repro.nn`` initialisation and therefore
must stay free of ``repro.workloads`` imports — and are re-exported here
so the workloads package presents one coherent API surface.  New code
should import from :mod:`repro.workloads`.
"""

from __future__ import annotations

from repro.nn.workloads import (
    random_gemm_shapes,
    random_int_matrices,
    synthetic_gemm_sweep,
)

__all__ = [
    "synthetic_gemm_sweep",
    "random_gemm_shapes",
    "random_int_matrices",
]
