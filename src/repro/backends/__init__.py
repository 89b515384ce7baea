"""Pluggable execution backends.

One protocol, three fidelities:

========================  =====================================================
backend                   what it does
========================  =====================================================
``analytical``            reference closed forms (Eqs. 1–7), per layer
``batched``               same numbers from one vectorised NumPy pass per
                          model, memoised across repeated shapes and sweeps
``cycle``                 cycle counts measured on the cycle-accurate tile
                          simulator (calibrated once per array mode)
========================  =====================================================

Pick one by instance (``ArrayFlexAccelerator(backend=BatchedCachedBackend())``),
by name (``create_backend("batched")``), or from the command line
(``python -m repro --backend batched ...``).
"""

from __future__ import annotations

import copy
import os

from repro.backends.analytical import AnalyticalBackend
from repro.backends.base import (
    ExecutionBackend,
    ExecutionBackendProtocol,
    LayerResult,
    ModelTotals,
)
from repro.backends.batched import BatchedCachedBackend
from repro.backends.cycle_accurate import CycleAccurateBackend
from repro.backends.store import (
    CACHE_VERSION,
    DecisionStore,
    ShardView,
    default_cache_dir,
)

#: Registry of backend constructors, keyed by their CLI names.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    AnalyticalBackend.name: AnalyticalBackend,
    BatchedCachedBackend.name: BatchedCachedBackend,
    CycleAccurateBackend.name: CycleAccurateBackend,
}


def attach_store(
    backend: ExecutionBackend | ExecutionBackendProtocol | str | None,
    cache_dir: str | os.PathLike[str] | None,
) -> ExecutionBackend | ExecutionBackendProtocol | str | None:
    """Attach a disk-persistent :class:`DecisionStore` for ``cache_dir``.

    The one place every ``cache_dir=`` entry point (accelerator facade,
    serving front-end, design-space explorer, size sweep) funnels
    through, so they all validate identically: ``cache_dir`` requires the
    decision-cache-owning ``batched`` backend (the default it implies)
    and refuses to clobber a store the caller already configured.  With
    ``cache_dir=None`` the backend argument passes through untouched.

    A caller-provided backend *instance* is never mutated: the store is
    attached to a deep copy (which routes through the backends'
    ``__getstate__``/``__setstate__``, preserving subclass type and tuned
    state while giving the clone fresh locks and an independent cache),
    so persistence stays confined to the component that asked for it.
    """
    if cache_dir is None:
        return backend
    backend = create_backend(backend, default="batched")
    if not isinstance(backend, BatchedCachedBackend):
        raise ValueError(
            "cache_dir requires the decision-cache-owning batched backend "
            "(the default)"
        )
    if backend.store is not None:
        raise ValueError("backend already has a store; drop cache_dir")
    clone = copy.deepcopy(backend)
    clone.store = DecisionStore(cache_dir)
    return clone


def model_totals(
    backend: ExecutionBackend | ExecutionBackendProtocol,
    model,
    config,
    conventional: bool = False,
    model_name: str | None = None,
) -> ModelTotals:
    """Aggregate time/energy of one run, via the backend's fast path.

    The single duck-typing shim shared by every totals consumer (the
    design-space explorer, the serving front-end): backends exposing
    ``schedule_model_totals`` use it directly (the batched one skips
    per-layer object construction); bare protocol implementations get
    the base class's materialise-and-sum generic bound to them, so the
    fallback logic lives in exactly one place — bit-identical either way.
    """
    fast = getattr(backend, "schedule_model_totals", None)
    if fast is None:
        fast = ExecutionBackend.schedule_model_totals.__get__(backend)
    return fast(model, config, model_name=model_name, conventional=conventional)


def create_backend(
    backend: ExecutionBackend | ExecutionBackendProtocol | str | None,
    default: str = "analytical",
) -> ExecutionBackend | ExecutionBackendProtocol:
    """Resolve a backend argument (instance, registry name or None).

    ``None`` resolves to ``default``: the reference analytical backend for
    the accelerator facade (historical behaviour), while sweep-style call
    sites pass ``default="batched"`` to get the numerically identical
    fast path.
    """
    if backend is None:
        backend = default
    if isinstance(backend, ExecutionBackend):
        return backend
    if not isinstance(backend, str) and isinstance(backend, ExecutionBackendProtocol):
        return backend  # duck-typed implementation of the protocol
    try:
        return BACKENDS[backend]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {backend!r} (available: {sorted(BACKENDS)})"
        ) from None


__all__ = [
    "AnalyticalBackend",
    "BatchedCachedBackend",
    "CycleAccurateBackend",
    "DecisionStore",
    "ShardView",
    "CACHE_VERSION",
    "default_cache_dir",
    "ExecutionBackend",
    "ExecutionBackendProtocol",
    "LayerResult",
    "ModelTotals",
    "BACKENDS",
    "attach_store",
    "create_backend",
    "model_totals",
]
