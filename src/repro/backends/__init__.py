"""Pluggable execution backends.

One base class (:class:`ExecutionBackend`), one reference, one engine:

========================  =====================================================
backend                   what it does
========================  =====================================================
``analytical``            reference closed forms (Eqs. 1–7), per layer
``batched``               the engine: same numbers from one vectorised Eq. (6)
                          mode search per batch of distinct layer shapes
``cycle``                 the engine on measured per-tile cycles: lines fitted
                          once per (geometry, mode) to register-stepped probe
                          tiles
========================  =====================================================

Pick one by instance (``ArrayFlexAccelerator(backend=BatchedCachedBackend())``),
by name (``create_backend("batched")``), or from the command line
(``python -m repro compare --backend batched ...``).
"""

from __future__ import annotations

import copy
import os

from repro.backends.analytical import AnalyticalBackend
from repro.backends.base import ExecutionBackend, ModelTotals
from repro.backends.batched import BatchedCachedBackend
from repro.backends.cycle_accurate import CycleAccurateBackend
from repro.backends.store import CACHE_VERSION, DecisionStore, ShardView

#: Registry of backend constructors, keyed by their CLI names.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    AnalyticalBackend.name: AnalyticalBackend,
    BatchedCachedBackend.name: BatchedCachedBackend,
    CycleAccurateBackend.name: CycleAccurateBackend,
}


def attach_store(
    backend: ExecutionBackend | str | None,
    cache_dir: str | os.PathLike[str] | None,
) -> ExecutionBackend | str | None:
    """Attach a disk-persistent :class:`DecisionStore` for ``cache_dir``.

    What :class:`~repro.core.design_space.DesignSpaceExplorer`'s
    ``cache_dir=``, the store's one entry point, does with its backend:
    ``cache_dir`` requires the ``batched`` backend (the default it
    implies) and refuses to clobber a store the caller already configured.  The
    ``cycle`` backend shares the batched engine but is refused too: the
    store's rows carry Eq. (3) cycles, so answering from them would not
    be measured.  With ``cache_dir=None`` the backend argument passes
    through untouched.

    A caller-provided backend *instance* is never mutated: the store is
    attached to a deep copy (which routes through the backends'
    ``__getstate__``/``__setstate__``, preserving subclass type and tuned
    state while giving the clone fresh locks),
    so persistence stays confined to the component that asked for it.
    """
    if cache_dir is None:
        return backend
    backend = create_backend(backend, default="batched")
    if not isinstance(backend, BatchedCachedBackend) or isinstance(
        backend, CycleAccurateBackend
    ):
        raise ValueError("cache_dir requires the batched backend (the default)")
    if backend.store is not None:
        raise ValueError("backend already has a store; drop cache_dir")
    clone = copy.deepcopy(backend)
    clone.store = DecisionStore(cache_dir)
    return clone


def create_backend(
    backend: ExecutionBackend | str | None,
    default: str = "analytical",
) -> ExecutionBackend:
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
    "ExecutionBackend",
    "ModelTotals",
    "BACKENDS",
    "attach_store",
    "create_backend",
]
