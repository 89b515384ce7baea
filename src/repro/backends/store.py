"""Disk-persistent decision cache (v2: columnar, memory-mapped shards).

:class:`DecisionStore` spills the batched backend's LRU decision cache
to an on-disk store so a rerun design-space sweep
(``DesignSpaceExplorer(cache_dir=...)``, the store's one entry point)
skips re-deriving mode decisions entirely.  One *shard* holds every
cached decision of one accelerator configuration; shards are named by a
digest of ``(store version, config key)``, so decisions computed under a
different array geometry, mode set, activity factor, activity model or
technology model can never be confused — the technology model's full
parameter set is part of
:meth:`~repro.core.config.ArrayFlexConfig.cache_key`.

The v2 on-disk format is columnar:

* ``decisions-<digest>.npy`` — one NumPy structured array
  (:data:`~repro.backends.decisions.DECISION_DTYPE`: the (m, n, t) GEMM
  key plus the fifteen decision columns).  Shards are memory-mapped
  read-only through one open file handle (:func:`_map_shard`), so N
  processes of a pool sweep share one page-cache copy of the payload
  instead of N parsed heaps, and a warm load costs an mmap plus one
  key-index build instead of a JSON parse.  Rows are materialised into
  Python lists one at a time (:class:`ShardView.get`), only when a
  backend actually misses its in-memory LRU.
* ``decisions-<digest>.meta.json`` — a small sidecar recording the shard's
  store version, configuration key and row count.

Within one process, unchanged shard files additionally resolve through a
global view registry validated by ``stat`` signatures, so however many
fresh :class:`DecisionStore` handles a sweep opens, each shard costs one
mmap and one key-index build per process.

Versioning and invalidation are explicit:

* :data:`STORE_FORMAT_VERSION` changes when the on-disk layout changes
  (v2: the JSON-to-columnar rewrite);
* :data:`DECISION_MODEL_VERSION` changes when the latency / clock / energy
  closed forms change (anything that would alter a cached number) or when
  the row layout changes (v5: the fifteen-column row);
* the combined :data:`CACHE_VERSION` is baked into every shard digest and
  recorded both in a ``VERSION`` marker file and inside each sidecar, so a
  version bump atomically orphans every stale entry — including the whole
  JSON v1 era — and the store purges them on the next write.

Writes are atomic (temp file + :func:`os.replace` in the same directory)
and merge with whatever a concurrent writer already flushed, so parallel
sweeps sharing one cache directory lose at most duplicated work, never
correctness.  A merge rewrites the whole shard, so
:meth:`DecisionStore.put_many` buffers a shard's rows until they number
at least the rows this instance last saw on disk for it: a new shard is
written at once, a shard of n rows costs O(log n) merges, and each row is
rewritten O(1) times on average.  :meth:`~DecisionStore.flush`, pickling,
:meth:`~DecisionStore.stats` and the normal exit of the process (or pool
worker) holding buffered rows write them all; a killed process loses at
most the rows buffered since each shard's last merge.  Corrupt shards are
never silently swallowed: unreadable payloads are surfaced through a
``warnings.warn`` naming the file and counted in
:meth:`~DecisionStore.stats`.  The store has no default location: it
writes only into the directory its caller names.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from multiprocessing import util
from pathlib import Path

import numpy as np

from repro.backends.decisions import (
    DECISION_DTYPE,
    check_entry,
    record_to_row,
    records_index,
    rows_to_records,
)
from repro.obs.trace import get_tracer

#: Bump when the on-disk shard layout changes.  v2: JSON payloads replaced
#: by memory-mapped columnar ``.npy`` structured arrays with a JSON
#: metadata sidecar per shard.
STORE_FORMAT_VERSION = 2
#: Bump when the scheduling closed forms (latency / clock / energy models)
#: change in a way that alters cached decisions — or when the decision
#: row layout changes.  v2: the activity-aware LayerMetrics refactor (rows
#: carry per-layer activity, array utilization and the full per-component
#: power breakdown).  v3: rows widened with a nullable per-layer
#: estimate-uncertainty column.  v4: the same sixteen columns re-encoded
#: as one structured-array record per row, so every JSON-era shard purges
#: cleanly on first use.  v5: the uncertainty column dropped again
#: (fifteen columns).
DECISION_MODEL_VERSION = 5
#: The combined version every shard is keyed and stamped with.
CACHE_VERSION = f"{STORE_FORMAT_VERSION}.{DECISION_MODEL_VERSION}"

#: Name of the marker file recording the version a cache directory serves.
_VERSION_MARKER = "VERSION"
_SHARD_PREFIX = "decisions-"
_SHARD_SUFFIX = ".npy"
_SIDECAR_SUFFIX = ".meta.json"

#: Process-global shard-view registry: the shared read path.  Every
#: DecisionStore instance in this process resolves an unchanged shard
#: file to the same :class:`ShardView` (one mmap + one key index per
#: shard per process, however many fresh store handles a sweep opens);
#: entries are validated against the payload/sidecar ``stat`` signatures
#: on every lookup, so any on-disk change — a concurrent merge, a purge,
#: hand-edited files — misses the cache and re-reads.
_VIEW_CACHE: dict[str, tuple[tuple, tuple, str, str, ShardView]] = {}
_VIEW_CACHE_LOCK = threading.Lock()
_VIEW_CACHE_CAP = 1024


def _stat_sig(path: Path) -> tuple:
    stat = path.stat()
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _view_cache_get(path: Path, payload_sig: tuple, sidecar_sig: tuple):
    with _VIEW_CACHE_LOCK:
        entry = _VIEW_CACHE.get(str(path))
    if entry is None or entry[0] != payload_sig or entry[1] != sidecar_sig:
        return None
    return entry[2:]


def _view_cache_put(
    path: Path,
    payload_sig: tuple,
    sidecar_sig: tuple,
    version: str,
    config_repr: str,
    view: ShardView,
) -> None:
    with _VIEW_CACHE_LOCK:
        if len(_VIEW_CACHE) >= _VIEW_CACHE_CAP:
            _VIEW_CACHE.clear()
        _VIEW_CACHE[str(path)] = (payload_sig, sidecar_sig, version, config_repr, view)


def _view_cache_discard(path: Path) -> None:
    with _VIEW_CACHE_LOCK:
        _VIEW_CACHE.pop(str(path), None)


def _map_shard(path: Path) -> np.ndarray:
    """Memory-map one shard payload read-only, through one open file.

    ``np.load(path, mmap_mode="r")`` reads the header through one
    ``open()`` and maps through a second one, so a concurrent merge's
    :func:`os.replace` between the two pairs one file's header with
    another file's bytes.  Reading the header from the handle that is
    then mapped pins both to the same inode.  Raises :class:`ValueError`
    for anything that is not a one-dimensional
    :data:`~repro.backends.decisions.DECISION_DTYPE` array.
    """
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            header = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            header = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(f"unsupported .npy format version {version}")
        shape, _, dtype = header
        if dtype != DECISION_DTYPE or len(shape) != 1:
            raise ValueError(f"unexpected shard layout {dtype}/{len(shape)}d")
        return np.memmap(handle, dtype=dtype, mode="r", shape=shape, offset=handle.tell())


class ShardView:
    """Zero-copy read view of one columnar shard.

    Wraps the shard's structured array — usually a read-only memmap whose
    pages every reader process shares through the OS page cache — plus the
    ``(m, n, t) -> row position`` index.  ``get`` materialises exactly one
    row into the canonical list form (:func:`~repro.backends.decisions.
    record_to_row`), so a warm backend pays per-row decode cost only on
    the rows it actually misses in memory.
    """

    __slots__ = ("array", "_index")

    def __init__(self, array: np.ndarray, index: dict | None = None) -> None:
        self.array = array
        self._index = records_index(array) if index is None else index

    def get(self, key: tuple, default: list | None = None) -> list | None:
        position = self._index.get(key)
        if position is None:
            return default
        return record_to_row(self.array[position])

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: tuple) -> bool:
        return key in self._index

    def __iter__(self):
        return iter(self._index)

    def keys(self):
        return self._index.keys()


def _empty_view() -> ShardView:
    return ShardView(np.empty(0, dtype=DECISION_DTYPE), {})


class DecisionStore:
    """On-disk, versioned store of ``(GEMM, configuration) -> decision``.

    Decisions are the per-layer metrics rows cached by
    :class:`~repro.backends.batched.BatchedCachedBackend` (mode, cycles,
    operating point, activity, utilization and the per-component power
    breakdown); they are stored as one
    columnar structured array per configuration (int64/float64 columns
    round-trip bit-exactly) and read back through memory-mapped
    :class:`ShardView` objects.  The store is safe for concurrent use from
    threads (a lock serialises shard mutation) and from processes (atomic
    replace + merge-on-write).
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        version: str = CACHE_VERSION,
    ) -> None:
        self.directory = Path(directory).expanduser()
        self.version = version
        self._init_transient()

    def _init_transient(self) -> None:
        self._lock = threading.Lock()
        #: Shard memo: digest -> ShardView, mapped lazily per shard; its
        #: length is the row count this instance last saw on disk.
        self._shards: dict[str, ShardView] = {}
        #: Write buffer: digest -> (config_key, {gemm_key: row}).
        self._pending: dict[str, tuple[tuple, dict[tuple, list]]] = {}
        self._pending_rows = 0
        #: The exit-time flush, registered only while rows are buffered
        #: (it holds this store alive).
        self._exit_flush: util.Finalize | None = None
        #: In-process activity counters (see :meth:`counters`), updated
        #: under the lock.
        self._shard_loads = 0
        self._merges = 0
        self._rows_merged = 0
        #: Unreadable shards encountered by this instance's loads.
        self._corrupt_loads = 0

    # ------------------------------------------------------------------ #
    # Pickling (process-pool workers reopen the same directory)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # Flush first: rows buffered here must be on disk before a pool
        # worker opens the same directory expecting to start warm.
        self.flush()
        return {"directory": self.directory, "version": self.version}

    def __setstate__(self, state: dict) -> None:
        self.directory = state["directory"]
        self.version = state["version"]
        self._init_transient()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecisionStore({str(self.directory)!r}, version={self.version!r})"

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    def _digest(self, config_key: tuple) -> str:
        payload = repr((self.version, config_key)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:24]

    def _shard_path(self, digest: str) -> Path:
        return self.directory / f"{_SHARD_PREFIX}{digest}{_SHARD_SUFFIX}"

    def _sidecar_path(self, digest: str) -> Path:
        return self.directory / f"{_SHARD_PREFIX}{digest}{_SIDECAR_SUFFIX}"

    @staticmethod
    def gemm_key(m: int, n: int, t: int) -> tuple[int, int, int]:
        """The within-shard key of one GEMM shape."""
        return (m, n, t)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def load(self, config_key: tuple) -> ShardView:
        """The stored decisions of one configuration, as a zero-copy view.

        The shard is memory-mapped once per store instance and memoised;
        this instance's merges keep the memo in sync.  Rows
        :meth:`put_many` buffered and not yet merged are visible through
        :meth:`get`, not through this view.
        """
        digest = self._digest(config_key)
        with self._lock:
            view = self._shards.get(digest)
            if view is None:
                with get_tracer().span("store.load", shard=digest) as span:
                    view = self._read_shard(digest, config_key)
                    span.set(rows=len(view))
                self._shards[digest] = view
                self._shard_loads += 1
            return view

    def get(self, config_key: tuple, m: int, n: int, t: int) -> list | None:
        """One stored decision, or None when absent (read-your-writes)."""
        key = self.gemm_key(m, n, t)
        digest = self._digest(config_key)
        with self._lock:
            pending = self._pending.get(digest)
            if pending is not None and key in pending[1]:
                return list(pending[1][key])
        return self.load(config_key).get(key)

    def _read_shard(self, digest: str, config_key: tuple) -> ShardView:
        """Memory-map one shard; corrupt payloads warn and read as empty.

        A missing payload or sidecar reads as empty silently (nothing was
        written yet, a stale-format era, or a concurrent writer mid-pair);
        a *present but unreadable* file is surfaced: ``warnings.warn``
        names it and :meth:`stats` counts it under ``corrupt_shards``.
        Unchanged shard files resolve through the process-global view
        registry, so N fresh store handles in one process cost one mmap
        and one index build, not N.
        """
        path = self._shard_path(digest)
        sidecar = self._sidecar_path(digest)
        try:
            payload_sig = _stat_sig(path)
            sidecar_sig = _stat_sig(sidecar)
        except OSError:
            return _empty_view()
        cached = _view_cache_get(path, payload_sig, sidecar_sig)
        if cached is not None:
            version, config_repr, view = cached
            if version == self.version and config_repr == repr(config_key):
                return view
            return _empty_view()
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("sidecar is not a JSON object")
        except FileNotFoundError:
            return _empty_view()
        except (OSError, ValueError) as error:
            self._note_corrupt(sidecar, error)
            return _empty_view()
        if meta.get("version") != self.version or meta.get("config_key") != repr(config_key):
            # Stale format or (vanishingly unlikely) digest collision:
            # treat as empty; the next write overwrites the pair.
            return _empty_view()
        try:
            array = _map_shard(path)
        except (OSError, ValueError, EOFError) as error:
            self._note_corrupt(path, error)
            return _empty_view()
        view = ShardView(array)
        _view_cache_put(
            path, payload_sig, sidecar_sig, str(meta["version"]), str(meta["config_key"]), view
        )
        return view

    def _note_corrupt(self, path: Path, error: Exception) -> None:
        self._corrupt_loads += 1
        warnings.warn(
            f"DecisionStore: skipping corrupt shard file {path} ({error}); "
            f"its decisions will be re-derived and the file overwritten on "
            f"the next write",
            RuntimeWarning,
            stacklevel=4,
        )

    def _read_sidecar(self, digest: str) -> dict | None:
        try:
            meta = json.loads(self._sidecar_path(digest).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put_many(self, config_key: tuple, decisions: dict[tuple, list]) -> None:
        """Add decisions to the configuration's shard.

        The rows join the shard's write buffer, and the buffer is merged
        into the shard (atomically on disk) once it holds at least as many
        rows as this instance last saw on disk for that shard — at once
        for a shard not yet on disk.  :meth:`get` sees buffered rows
        immediately; other store instances see them from the next merge
        on (see the module docstring for every flush point).
        """
        if not decisions:
            return
        for key, row in decisions.items():
            check_entry(key, row)
        digest = self._digest(config_key)
        with self._lock:
            _, buffered = self._pending.setdefault(digest, (config_key, {}))
            before = len(buffered)
            buffered.update(decisions)
            self._pending_rows += len(buffered) - before
            on_disk = self._shards.get(digest)
            if len(buffered) >= (len(on_disk) if on_disk is not None else 0):
                del self._pending[digest]
                self._pending_rows -= len(buffered)
                self._merge_locked(digest, config_key, buffered)
            self._sync_exit_flush_locked()

    def flush(self) -> None:
        """Merge every buffered row to disk (one merge per shard)."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        pending, self._pending, self._pending_rows = self._pending, {}, 0
        self._sync_exit_flush_locked()
        for digest, (config_key, decisions) in pending.items():
            self._merge_locked(digest, config_key, decisions)

    def _sync_exit_flush_locked(self) -> None:
        """Hold a flush at normal process exit exactly while rows are buffered.

        A forked child starts with its parent's registration dropped
        (``still_active`` is False there), so it registers its own.
        """
        armed = self._exit_flush is not None and self._exit_flush.still_active()
        if self._pending and not armed:
            # Ahead of multiprocessing's own finalizers (queues: 10), so a
            # pool worker writes its rows while it is still whole.
            self._exit_flush = util.Finalize(None, self.flush, exitpriority=100)
        elif not self._pending and self._exit_flush is not None:
            self._exit_flush.cancel()
            self._exit_flush = None

    def _merge_locked(self, digest: str, config_key: tuple, decisions: dict) -> None:
        with get_tracer().span("store.merge", shard=digest, rows=len(decisions)):
            self._merge_locked_traced(digest, config_key, decisions)

    def _merge_locked_traced(
        self, digest: str, config_key: tuple, decisions: dict
    ) -> None:
        self._merges += 1
        self._rows_merged += len(decisions)
        self._ensure_directory()
        fresh = rows_to_records(decisions)
        # Merge with concurrent writers' flushes before replacing: re-read
        # the on-disk shard rather than trusting this instance's memo.
        on_disk = self._read_shard(digest, config_key)
        if len(on_disk):
            keep = np.array([key not in decisions for key in on_disk.keys()], dtype=bool)
            merged = np.concatenate([np.asarray(on_disk.array)[keep], fresh])
        else:
            merged = fresh
        path = self._shard_path(digest)
        sidecar = self._sidecar_path(digest)
        self._atomic_write_array(path, merged)
        self._atomic_write_bytes(
            sidecar,
            (
                json.dumps(
                    {
                        "version": self.version,
                        "config_key": repr(config_key),
                        "rows": int(len(merged)),
                        "written": time.time(),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            ).encode("utf-8"),
        )
        view = ShardView(merged)
        self._shards[digest] = view
        try:
            _view_cache_put(
                path, _stat_sig(path), _stat_sig(sidecar), self.version, repr(config_key), view
            )
        except OSError:  # pragma: no cover - racing writer replaced the pair
            _view_cache_discard(path)

    def _atomic_write_array(self, path: Path, array: np.ndarray) -> None:
        self._atomic_write(path, lambda handle: np.save(handle, array, allow_pickle=False))

    def _atomic_write_bytes(self, path: Path, payload: bytes) -> None:
        self._atomic_write(path, lambda handle: handle.write(payload))

    def _atomic_write(self, path: Path, write) -> None:
        fd, tmp = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _ensure_directory(self) -> None:
        """Create the directory and enforce the version marker.

        A marker recording a *different* version means every shard on disk
        was produced by an incompatible store — including the JSON shards
        of the v1 format era: purge them all, then claim the directory for
        this version.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        marker = self.directory / _VERSION_MARKER
        try:
            recorded = marker.read_text(encoding="utf-8").strip()
        except OSError:
            recorded = None
        if recorded != self.version:
            if recorded is not None:
                self._purge_shards()
            marker.write_text(self.version + "\n", encoding="utf-8")

    def _purge_shards(self) -> None:
        self._shards.clear()
        for shard in self.directory.glob(f"{_SHARD_PREFIX}*"):
            # Payloads and sidecars of any era (.npy, .meta.json, the v1
            # format's .json shards, and the .hits use counters earlier
            # stores kept); in-flight *.tmp files belong to live writers
            # and stay.
            if shard.suffix not in (".npy", ".json", ".hits"):
                continue
            _view_cache_discard(shard)
            try:
                shard.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counters(self) -> dict[str, int]:
        """This instance's in-process activity counters, lock-cheap.

        Unlike :meth:`stats` (a full directory scan plus a flush), this
        reads a handful of integers under the lock and touches no disk:
        shards mapped by this instance, merges written, rows merged, rows
        still buffered, and corrupt loads tripped over.
        """
        with self._lock:
            return {
                "shard_loads": self._shard_loads,
                "merges": self._merges,
                "rows_merged": self._rows_merged,
                "pending_rows": self._pending_rows,
                "corrupt_loads": self._corrupt_loads,
            }

    def stats(self) -> dict[str, int]:
        """What is currently on disk, from one directory scan.

        ``shards`` / ``entries`` / ``total_bytes`` count the readable
        columnar shards (of any version; bytes include each sidecar), and
        ``corrupt_shards`` counts shard files present on disk that cannot
        be read back (truncated or garbled payloads, unreadable sidecars)
        — plus any corrupt files this instance's loads already tripped
        over and warned about.
        """
        with self._lock:
            self._flush_locked()
            shards = 0
            entries = 0
            total_bytes = 0
            corrupt = 0
            # A missing directory globs to nothing.
            for path in self.directory.glob(f"{_SHARD_PREFIX}*{_SHARD_SUFFIX}"):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                digest = path.name[len(_SHARD_PREFIX):-len(_SHARD_SUFFIX)]
                sidecar = self._sidecar_path(digest)
                try:
                    size += sidecar.stat().st_size
                except OSError:
                    pass
                if self._read_sidecar(digest) is None and sidecar.exists():
                    corrupt += 1
                    continue
                try:
                    array = _map_shard(path)
                except (OSError, ValueError, EOFError):
                    corrupt += 1
                    continue
                shards += 1
                entries += len(array)
                total_bytes += size
            return {
                "shards": shards,
                "entries": entries,
                "total_bytes": total_bytes,
                "corrupt_shards": corrupt + self._corrupt_loads,
            }
