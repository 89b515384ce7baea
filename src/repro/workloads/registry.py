"""String-keyed workload registry with suite grouping.

Every built-in workload — the paper's CNNs, the extended CNN zoo, the
transformer front-end — registers itself here under a normalised string
key, grouped into *suites* (``cnn``, ``cnn_extended``, ``transformers``).
Call sites resolve names through :func:`get_workload`, which is what lets
the CLI, the serving front-end and the design-space explorer accept plain
strings everywhere a workload object is accepted.

The registry is entry-point friendly: factories are zero-argument (all
parameters defaulted) callables, so an external package can expose its
own workloads by calling :func:`register_workload` at import time (for
example from a ``repro.workloads`` setuptools entry point) and they
become addressable from the CLI and the serving API with no further
wiring.

Names are normalised case-insensitively (``-``, ``/`` and spaces map to
``_``), so ``get_workload("ResNet-34")`` and ``get_workload("resnet34")``
resolve identically once the alias is registered.  A trailing ``@bs<N>``
suffix requests batched inference: ``get_workload("gpt2_decode@bs8")``
returns the decode trace with T scaled by a batch of 8 (see
:mod:`repro.workloads.batching`).

Each (registration, batch) pair is built once per process: builds without
factory keyword arguments are memoised in a bounded LRU, and every caller
shares the one frozen workload object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.workloads.base import Workload

#: Suite assigned when ``register_workload`` is not told otherwise.
DEFAULT_SUITE = "misc"

#: Separator of the inline batch-request suffix (``name@bs8``).
_BATCH_SUFFIX = "@bs"

#: Bound on memoised builds.  A built-in workload build holds about 12 KB
#: of frozen GEMM shapes, so a full memo stays near 6 MB.
BUILD_MEMO_SIZE = 512


class UnknownWorkloadError(ValueError):
    """Raised when a name resolves to no registered workload."""


@dataclass(frozen=True)
class WorkloadEntry:
    """One registration: the factory plus its catalogue metadata."""

    key: str
    factory: Callable[..., Workload]
    suite: str
    description: str = ""
    aliases: tuple[str, ...] = ()


_REGISTRY: dict[str, WorkloadEntry] = {}
_ALIASES: dict[str, str] = {}


def normalise_name(name: str) -> str:
    """The canonical registry spelling of a workload name."""
    key = name.strip().lower()
    for char in ("-", "/", " "):
        key = key.replace(char, "_")
    return key


def register_workload(
    name: str,
    factory: Callable[..., Workload] | None = None,
    *,
    suite: str = DEFAULT_SUITE,
    description: str = "",
    aliases: tuple[str, ...] = (),
    replace: bool = False,
) -> Callable:
    """Register a workload factory under a string key.

    Usable directly (``register_workload("bert_base", bert_base, ...)``)
    or as a decorator (``@register_workload("bert_base", ...)``).  Keys
    and aliases share one namespace; re-registration is an error unless
    ``replace=True`` (the escape hatch for tests and plugins that shadow
    a built-in).
    """
    if factory is None:
        return lambda fn: register_workload(
            name, fn, suite=suite, description=description, aliases=aliases, replace=replace
        )
    key = normalise_name(name)
    entry = WorkloadEntry(
        key=key,
        factory=factory,
        suite=suite,
        description=description,
        aliases=tuple(normalise_name(alias) for alias in aliases),
    )
    for candidate in (key, *entry.aliases):
        if _BATCH_SUFFIX in candidate:
            # get_workload strips '@bs...' before resolving, so such a
            # name could be registered but never looked up again.
            raise ValueError(
                f"workload name {candidate!r} may not contain {_BATCH_SUFFIX!r} "
                f"(reserved for batch suffixes)"
            )
    taken = set(_REGISTRY) | set(_ALIASES)
    if not replace:
        for candidate in (key, *entry.aliases):
            if candidate in taken:
                raise ValueError(f"workload name {candidate!r} is already registered")
    else:
        # Retire the replaced entry's aliases: a shadowing registration
        # must not keep resolving under names it never claimed.  The key
        # itself may currently be an alias of *another* entry (shadowing
        # a built-in by its display name); drop that too, or the new
        # registration would be unreachable behind the alias.
        for alias in [a for a, target in _ALIASES.items() if target == key]:
            del _ALIASES[alias]
        _ALIASES.pop(key, None)
    _REGISTRY[key] = entry
    for alias in entry.aliases:
        _ALIASES[alias] = key
    return factory


def workload_entry(name: str) -> WorkloadEntry:
    """The registration behind a name (follows aliases, raises when unknown)."""
    key = normalise_name(name)
    key = _ALIASES.get(key, key)
    entry = _REGISTRY.get(key)
    if entry is None:
        raise UnknownWorkloadError(
            f"unknown workload {name!r} (available: {list_workloads()})"
        )
    return entry


def get_workload(name: str, *, batch: int = 1, **kwargs) -> Workload:
    """Build a registered workload by name.

    ``batch`` (or an inline ``@bs<N>`` suffix on the name) maps the
    workload to batched inference by scaling every GEMM's streamed T
    dimension; ``kwargs`` pass through to the factory for parameterised
    builds (``get_workload("bert_base", seq_len=384)``).  Builds without
    ``kwargs`` are memoised: repeated calls return the same object.
    """
    marker = name.lower().rfind(_BATCH_SUFFIX)
    if marker >= 0:
        # Matched on the lowercased name: the suffix is as case-insensitive
        # as the workload names themselves ("resnet34@BS2" works).
        suffix = name[marker + len(_BATCH_SUFFIX):]
        name = name[:marker]
        try:
            inline_batch = int(suffix)
        except ValueError:
            raise UnknownWorkloadError(
                f"malformed batch suffix {_BATCH_SUFFIX}{suffix!r} (expected e.g. 'name@bs8')"
            ) from None
        if batch != 1:
            raise ValueError("give the batch inline or as batch=, not both")
        batch = inline_batch
    entry = workload_entry(name)
    if kwargs:
        return _build(entry, batch, **kwargs)
    return _memoised_build(entry, batch)


def _build(entry: WorkloadEntry, batch: int, **kwargs) -> Workload:
    workload = entry.factory(**kwargs)
    if batch == 1:
        return workload
    from repro.workloads.batching import batched_workload

    return batched_workload(workload, batch)


#: Keyed by the registration entry, factory included, so a ``replace=True``
#: registration (a new entry) or a hand-restored registry never meets a
#: stale build.  Workloads are frozen dataclasses, safe to share.
_memoised_build = lru_cache(maxsize=BUILD_MEMO_SIZE)(_build)


def list_workloads(suite: str | None = None) -> list[str]:
    """Sorted registry keys, optionally restricted to one suite."""
    return sorted(
        key for key, entry in _REGISTRY.items() if suite is None or entry.suite == suite
    )


def list_suites() -> dict[str, list[str]]:
    """Suite name -> sorted workload keys, for every non-empty suite."""
    suites: dict[str, list[str]] = {}
    for key, entry in _REGISTRY.items():
        suites.setdefault(entry.suite, []).append(key)
    return {suite: sorted(keys) for suite, keys in sorted(suites.items())}


def get_suite(suite: str, *, batch: int = 1) -> list[Workload]:
    """Build every workload of one suite (sorted by key)."""
    keys = list_workloads(suite)
    if not keys:
        raise UnknownWorkloadError(
            f"unknown workload suite {suite!r} (available: {sorted(list_suites())})"
        )
    return [get_workload(key, batch=batch) for key in keys]
