"""Tests for the disk-persistent decision cache (`repro.backends.store`)."""

import gc
import json
import math
import multiprocessing
import os
import pickle
import weakref

import pytest

from repro.backends import AnalyticalBackend, BatchedCachedBackend
from repro.backends.decisions import DECISION_ROW_WIDTH
from repro.backends.store import CACHE_VERSION, DecisionStore
from repro.core.config import ArrayFlexConfig
from repro.nn.models import resnet34


def make_row(value: float = 1.0) -> list:
    """A well-formed decision row (the v5 15-column layout) for store tests."""
    row = [2, 100, 1.7, 58.8, 3.5, 0.5, 0.9] + [float(value)] * 8
    assert len(row) == DECISION_ROW_WIDTH
    return row


@pytest.fixture()
def config():
    return ArrayFlexConfig.paper_128x128()


@pytest.fixture()
def store(tmp_path):
    return DecisionStore(tmp_path)


class TestRoundTrip:
    def test_get_missing_is_none(self, store, config):
        assert store.get(config.cache_key(), 64, 64, 64) is None

    def test_put_then_get(self, store, config):
        key = config.cache_key()
        store.put_many(key, {DecisionStore.gemm_key(8, 8, 8): make_row(1.9)})
        assert store.get(key, 8, 8, 8) == make_row(1.9)

    def test_fresh_instance_reads_what_another_wrote(self, tmp_path, config):
        key = config.cache_key()
        DecisionStore(tmp_path).put_many(key, {(1, 2, 3): make_row(2.5)})
        assert DecisionStore(tmp_path).get(key, 1, 2, 3) == make_row(2.5)

    def test_shard_payload_is_columnar_npy(self, tmp_path, store, config):
        """The v2 on-disk payload is a structured array, mmap-readable."""
        import numpy as np

        from repro.backends.decisions import DECISION_DTYPE

        store.put_many(config.cache_key(), {(8, 8, 8): make_row()})
        payload = next(tmp_path.glob("decisions-*.npy"))
        array = np.load(payload, mmap_mode="r", allow_pickle=False)
        assert array.dtype == DECISION_DTYPE
        assert len(array) == 1
        assert (int(array[0]["m"]), int(array[0]["n"]), int(array[0]["t"])) == (8, 8, 8)

    def test_load_returns_lazy_view_not_a_dict(self, store, config):
        """Reads go through the zero-copy view: len/contains/get, no dict."""
        key = config.cache_key()
        store.put_many(key, {(1, 2, 3): make_row(), (4, 5, 6): make_row(2.0)})
        view = store.load(key)
        assert len(view) == 2
        assert (1, 2, 3) in view and (9, 9, 9) not in view
        assert sorted(view.keys()) == [(1, 2, 3), (4, 5, 6)]
        assert view.get((4, 5, 6)) == make_row(2.0)
        assert view.get((9, 9, 9)) is None

    def test_malformed_rows_are_rejected_loudly(self, store, config):
        key = config.cache_key()
        with pytest.raises(ValueError):
            store.put_many(key, {"1,1,1": make_row()})  # v1-era string key
        with pytest.raises(ValueError):
            store.put_many(key, {(1, 1, 1): [1, 2, 3]})  # truncated row

    def test_different_configs_do_not_collide(self, store):
        small = ArrayFlexConfig(rows=16, cols=16).cache_key()
        large = ArrayFlexConfig(rows=128, cols=128).cache_key()
        store.put_many(small, {(1, 1, 1): make_row()})
        assert store.get(large, 1, 1, 1) is None

    def test_merge_preserves_existing_entries(self, store, config):
        key = config.cache_key()
        store.put_many(key, {(1, 1, 1): make_row(1.0)})
        store.put_many(key, {(2, 2, 2): make_row(2.0)})
        assert store.get(key, 1, 1, 1) is not None
        assert store.get(key, 2, 2, 2) is not None

    def test_merge_overrides_on_key_collision(self, tmp_path, store, config):
        key = config.cache_key()
        store.put_many(key, {(1, 1, 1): make_row(1.0)})
        store.put_many(key, {(1, 1, 1): make_row(9.0)})
        assert store.get(key, 1, 1, 1) == make_row(9.0)
        assert DecisionStore(tmp_path).stats()["entries"] == 1

    def test_corrupt_shard_warns_and_reads_empty(self, tmp_path, store, config):
        key = config.cache_key()
        store.put_many(key, {(1, 1, 1): make_row()})
        shard = next(tmp_path.glob("decisions-*.npy"))
        shard.write_bytes(b"this is not a npy payload")
        fresh = DecisionStore(tmp_path)
        with pytest.warns(RuntimeWarning, match=shard.name):
            assert fresh.get(key, 1, 1, 1) is None

    def test_stats_count_shards_rows_and_bytes(self, tmp_path, store, config):
        key = config.cache_key()
        store.put_many(key, {(1, 1, 1): make_row()})
        stats = DecisionStore(tmp_path).stats()
        assert (stats["shards"], stats["entries"]) == (1, 1)
        assert stats["total_bytes"] > 0
        assert stats["corrupt_shards"] == 0
        assert DecisionStore(tmp_path / "missing").stats() == {
            "shards": 0,
            "entries": 0,
            "total_bytes": 0,
            "corrupt_shards": 0,
        }


class TestVersioning:
    def test_activity_refactor_bumped_the_decision_model_version(self):
        """The LayerMetrics refactor widened the decision row (activity,
        utilization, per-component power), so the combined cache version
        must have moved past the v1 era — a frozen constant here keeps a
        future row change from silently reusing stale shards."""
        from repro.backends.store import DECISION_MODEL_VERSION, STORE_FORMAT_VERSION

        assert DECISION_MODEL_VERSION >= 2
        assert CACHE_VERSION == f"{STORE_FORMAT_VERSION}.{DECISION_MODEL_VERSION}"
        assert CACHE_VERSION != "1.1"  # the six-number flat-row era

    def test_error_bound_column_bumped_the_decision_model_version(self):
        """Rows were widened with a nullable error-bound column (v3) and
        narrowed back to fifteen columns when it went (v5); shards of
        either neighbouring layout must be orphaned by the version key."""
        from repro.backends.store import DECISION_MODEL_VERSION

        assert DECISION_MODEL_VERSION >= 5
        assert CACHE_VERSION != "1.2"  # the 15-column JSON era
        assert CACHE_VERSION != "2.4"  # the 16-column columnar era

    def test_columnar_rewrite_bumped_both_versions(self):
        """The v2 columnar format re-encoded rows (v4) and changed the
        on-disk layout (store format 2): frozen floor so a future change
        can never silently reuse JSON-era or early-columnar shards."""
        from repro.backends.store import DECISION_MODEL_VERSION, STORE_FORMAT_VERSION

        assert STORE_FORMAT_VERSION >= 2
        assert DECISION_MODEL_VERSION >= 4
        assert CACHE_VERSION != "1.3"  # the JSON-payload v3-row era

    def test_version_bump_purges_v1_json_shards(self, tmp_path, config):
        """A cache directory left behind by the JSON-v1-format store (v1.3
        era: ``decisions-*.json`` payloads) is purged wholesale the first
        time the current store writes — including the payload files the
        columnar store itself can no longer parse."""
        key = config.cache_key()
        (tmp_path / "VERSION").write_text("1.3\n", encoding="utf-8")
        legacy_shard = tmp_path / "decisions-0123456789abcdef01234567.json"
        legacy_shard.write_text(
            json.dumps(
                {
                    "version": "1.3",
                    "config_key": repr(key),
                    "decisions": {"8,8,8": [2, 100, 1.7, 58.8, 3.5, 0.5, 0.9]},
                }
            ),
            encoding="utf-8",
        )

        current = DecisionStore(tmp_path)  # defaults to CACHE_VERSION
        assert current.get(key, 8, 8, 8) is None  # stale shard is invisible
        current.put_many(key, {(1, 1, 1): make_row()})
        assert (tmp_path / "VERSION").read_text().strip() == CACHE_VERSION
        assert not legacy_shard.exists()
        metas = [
            json.loads(path.read_text())
            for path in tmp_path.glob("decisions-*.meta.json")
        ]
        assert [m["version"] for m in metas] == [CACHE_VERSION]
        assert DecisionStore(tmp_path).get(key, 8, 8, 8) is None
        assert DecisionStore(tmp_path).get(key, 1, 1, 1) == make_row()

    def test_warm_rerun_after_bump_re_derives_and_stays_correct(self, tmp_path, config):
        """End to end: a store carrying pre-refactor rows never feeds the
        backend; the rerun re-derives and produces the reference schedule."""
        model = resnet34()
        reference = AnalyticalBackend().schedule_model(model, config)
        stale = DecisionStore(tmp_path, version="1.1")
        backend_v1 = BatchedCachedBackend(store=stale)
        backend_v1.schedule_model(model, config)

        fresh = BatchedCachedBackend(store=DecisionStore(tmp_path))
        assert fresh.schedule_model(model, config).layers == reference.layers
        info = fresh.cache_info()
        assert info["store_hits"] == 0
        assert info["misses"] > 0

    def test_version_mismatch_invalidates_lookups(self, tmp_path, config):
        key = config.cache_key()
        DecisionStore(tmp_path, version="8.8").put_many(key, {(1, 1, 1): make_row()})
        assert DecisionStore(tmp_path, version="9.9").get(key, 1, 1, 1) is None

    def test_new_version_purges_stale_shards_on_write(self, tmp_path, config):
        key = config.cache_key()
        DecisionStore(tmp_path, version="8.8").put_many(key, {(1, 1, 1): make_row()})
        assert (tmp_path / "VERSION").read_text().strip() == "8.8"
        DecisionStore(tmp_path, version="9.9").put_many(key, {(2, 2, 2): make_row(2.0)})
        assert (tmp_path / "VERSION").read_text().strip() == "9.9"
        metas = [
            json.loads(path.read_text())
            for path in tmp_path.glob("decisions-*.meta.json")
        ]
        assert [m["version"] for m in metas] == ["9.9"]
        assert len(list(tmp_path.glob("decisions-*.npy"))) == 1

    def test_sidecar_records_config_and_version(self, tmp_path, store, config):
        key = config.cache_key()
        store.put_many(key, {(1, 1, 1): make_row()})
        meta = json.loads(next(tmp_path.glob("decisions-*.meta.json")).read_text())
        assert meta["version"] == CACHE_VERSION
        assert meta["config_key"] == repr(key)
        assert meta["rows"] == 1

    def test_pickle_round_trip_drops_transient_state(self, tmp_path, config):
        store = DecisionStore(tmp_path)
        key = config.cache_key()
        store.put_many(key, {(1, 1, 1): make_row()})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.directory == store.directory
        assert clone.version == store.version
        assert clone.get(key, 1, 1, 1) == make_row()


def _seeded(directory, key, rows: int = 2) -> DecisionStore:
    """A fresh store whose ``key`` shard already holds ``rows`` rows on disk."""
    store = DecisionStore(directory)
    store.put_many(key, {(100 + i, 1, 1): make_row() for i in range(rows)})
    return store


def _buffer_one_row_and_exit(directory: str, key: tuple) -> None:
    """Child process: leave one row buffered (1 < 2 on disk), then exit."""
    store = _seeded(directory, key)
    store.put_many(key, {(1, 1, 1): make_row(3.0)})
    assert store.counters()["pending_rows"] == 1


def _disk_rows(directory) -> int:
    """The row count the shard's sidecar records on disk."""
    return json.loads(next(directory.glob("decisions-*.meta.json")).read_text())["rows"]


class TestBufferedPut:
    """put_many buffers a shard's rows until they would double it on disk."""

    def test_new_shard_is_merged_at_once(self, tmp_path, config):
        store = DecisionStore(tmp_path)
        store.put_many(config.cache_key(), {(1, 1, 1): make_row()})
        assert store.counters()["merges"] == 1
        assert store.counters()["pending_rows"] == 0

    def test_put_buffers_until_flush(self, tmp_path, config):
        key = config.cache_key()
        store = _seeded(tmp_path, key)
        store.put_many(key, {(1, 1, 1): make_row()})
        assert DecisionStore(tmp_path).get(key, 1, 1, 1) is None  # buffered only
        store.flush()
        assert DecisionStore(tmp_path).get(key, 1, 1, 1) == make_row()

    def test_get_sees_buffered_rows(self, tmp_path, config):
        """Read-your-writes: the buffering is invisible to the writer."""
        key = config.cache_key()
        store = _seeded(tmp_path, key)
        store.put_many(key, {(1, 1, 1): make_row(7.0)})
        assert store.counters()["pending_rows"] == 1
        assert store.get(key, 1, 1, 1) == make_row(7.0)

    @pytest.mark.parametrize("calls", [1, 2, 3, 5, 8, 9, 40])
    def test_equal_calls_cost_logarithmic_merges(self, tmp_path, config, calls):
        """k equal put_many calls: at most ceil(log2 k) + 1 merges, and the
        buffer never holds as many rows as the shard does on disk."""
        store = DecisionStore(tmp_path)
        key = config.cache_key()
        for call in range(calls):
            store.put_many(key, {(call, i, 1): make_row() for i in range(5)})
            assert store.counters()["pending_rows"] < _disk_rows(tmp_path)
        assert store.counters()["merges"] <= math.ceil(math.log2(calls)) + 1
        store.flush()
        assert DecisionStore(tmp_path).stats()["entries"] == 5 * calls

    def test_malformed_rows_rejected_before_buffering(self, tmp_path, config):
        key = config.cache_key()
        store = _seeded(tmp_path, key)
        with pytest.raises(ValueError):
            store.put_many(key, {(1, 1, 1): [1, 2, 3]})
        assert store.counters()["pending_rows"] == 0

    def test_pickling_flushes_the_buffer(self, tmp_path, config):
        """Shipping a store to a pool worker must not strand buffered rows."""
        key = config.cache_key()
        store = _seeded(tmp_path, key)
        store.put_many(key, {(1, 1, 1): make_row()})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get(key, 1, 1, 1) == make_row()
        assert DecisionStore(tmp_path).stats()["entries"] == 3

    def test_put_many_folds_in_buffered_rows_for_the_same_shard(self, tmp_path, config):
        key = config.cache_key()
        store = _seeded(tmp_path, key)
        store.put_many(key, {(1, 1, 1): make_row(1.0)})  # 1 < 2 on disk: buffered
        store.put_many(key, {(2, 2, 2): make_row(2.0)})  # 2 >= 2: one merge of both
        assert store.counters()["merges"] == 2
        fresh = DecisionStore(tmp_path)
        assert fresh.get(key, 1, 1, 1) == make_row(1.0)
        assert fresh.get(key, 2, 2, 2) == make_row(2.0)

    def test_normal_exit_writes_buffered_rows(self, tmp_path, config):
        key = config.cache_key()
        child = multiprocessing.get_context("spawn").Process(
            target=_buffer_one_row_and_exit, args=(str(tmp_path), key)
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert DecisionStore(tmp_path).get(key, 1, 1, 1) == make_row(3.0)

    def test_flushed_store_is_not_kept_alive(self, tmp_path, config):
        """Only a store with buffered rows is held for the exit flush."""
        key = config.cache_key()
        store = _seeded(tmp_path, key)
        store.put_many(key, {(1, 1, 1): make_row()})
        alive = weakref.ref(store)
        store.flush()
        del store
        gc.collect()
        assert alive() is None


class TestBackendIntegration:
    def test_cold_then_warm_is_bit_identical(self, tmp_path, config):
        """A fresh process (fresh backend) reads back the exact schedule."""
        model = resnet34()
        reference = AnalyticalBackend().schedule_model(model, config)

        cold = BatchedCachedBackend(store=DecisionStore(tmp_path))
        assert cold.schedule_model(model, config).layers == reference.layers

        warm = BatchedCachedBackend(store=DecisionStore(tmp_path))
        schedule = warm.schedule_model(model, config)
        assert schedule.layers == reference.layers
        info = warm.cache_info()
        assert info["misses"] == 0
        assert info["store_hits"] > 0

    def test_totals_fast_path_matches_schedule_sums(self, tmp_path, config):
        model = resnet34()
        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        schedule = backend.schedule_model(model, config)
        totals = backend.schedule_model_totals(model, config)
        assert totals.time_ns == schedule.total_time_ns
        assert totals.energy_nj == schedule.total_energy_nj
        conventional = backend.schedule_model_conventional(model, config)
        conv_totals = backend.schedule_model_totals(model, config, conventional=True)
        assert conv_totals.time_ns == conventional.total_time_ns
        assert conv_totals.energy_nj == conventional.total_energy_nj

    def test_version_bump_forces_re_derivation(self, tmp_path, config):
        model = resnet34()
        BatchedCachedBackend(store=DecisionStore(tmp_path)).schedule_model(model, config)
        stale = BatchedCachedBackend(store=DecisionStore(tmp_path, version="0.0"))
        stale.schedule_model(model, config)
        info = stale.cache_info()
        assert info["store_hits"] == 0
        assert info["misses"] > 0

    def test_backend_with_store_pickles(self, tmp_path, config):
        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        model = resnet34()
        reference = backend.schedule_model(model, config)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.schedule_model(model, config).layers == reference.layers


class TestConcurrentReplace:
    """A merge's ``os.replace`` racing a reader's open of the same shard."""

    def test_replace_between_header_read_and_map_reads_one_file(
        self, tmp_path, config, monkeypatch
    ):
        """The reader maps the file whose header it read, even when a
        concurrent merge swaps a smaller shard into place in between:
        no corrupt-shard warning, and the view holds one file's rows."""
        import warnings

        import numpy as np

        from repro.backends import store as store_module

        key = config.cache_key()
        original = {(m, m, m): make_row(float(m)) for m in range(1, 41)}
        DecisionStore(tmp_path).put_many(key, original)
        other = tmp_path / "other"
        DecisionStore(other).put_many(
            key, {(m, m, m): make_row(-1.0) for m in range(1, 11)}
        )
        shard = next(tmp_path.glob("decisions-*.npy"))
        replacement = other / shard.name
        # Forget the writer's cached view so the reader opens the file.
        monkeypatch.setattr(store_module, "_VIEW_CACHE", {})
        real_memmap = np.memmap
        swaps = []

        def swap_then_map(*args, **kwargs):
            if not swaps:
                swaps.append(shard)
                os.replace(replacement, shard)
            return real_memmap(*args, **kwargs)

        monkeypatch.setattr(np, "memmap", swap_then_map)
        reader = DecisionStore(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            view = reader.load(key)
        assert swaps == [shard]  # the swap really happened mid-read
        assert [str(w.message) for w in caught] == []
        assert reader.counters()["corrupt_loads"] == 0
        assert sorted(view.keys()) == sorted(original)
        assert all(view.get(gemm) == row for gemm, row in original.items())


class TestAttachStore:
    """attach_store validates DesignSpaceExplorer(cache_dir=), the store's one entry point."""

    def test_attach_to_default_backend(self, tmp_path):
        from repro.backends import attach_store

        backend = attach_store(None, tmp_path)
        assert isinstance(backend, BatchedCachedBackend)
        assert backend.store.directory == tmp_path

    def test_none_cache_dir_passes_through(self):
        from repro.backends import attach_store

        assert attach_store("analytical", None) == "analytical"

    def test_rejects_non_batched_and_double_store(self, tmp_path):
        from repro.backends import attach_store

        # cycle runs the batched engine, but the store's rows are not measured.
        for backend in ("analytical", "cycle"):
            with pytest.raises(ValueError):
                attach_store(backend, tmp_path)
        with pytest.raises(ValueError):
            attach_store(BatchedCachedBackend(store=DecisionStore(tmp_path)), tmp_path)

    def test_explorer_backend_name_plus_cache_dir_persists(self, tmp_path):
        """Regression: backend= and cache_dir= together must not silently
        drop persistence."""
        from repro.core.design_space import DesignPoint, DesignSpaceExplorer

        explorer = DesignSpaceExplorer([resnet34()], backend="batched", cache_dir=tmp_path)
        assert explorer.backend.store is not None
        explorer.evaluate_point(DesignPoint(rows=64, cols=64, supported_depths=(1, 2)))
        assert list(tmp_path.glob("decisions-*.npy"))
        for backend in ("analytical", "cycle"):
            with pytest.raises(ValueError):
                DesignSpaceExplorer([resnet34()], backend=backend, cache_dir=tmp_path)


class TestAttachStoreIsolation:
    def test_attach_store_does_not_mutate_caller_backend(self, tmp_path):
        """Regression: persistence stays confined to the component that
        asked for it."""
        from repro.backends import attach_store

        original = BatchedCachedBackend(cache_size=7)
        attached = attach_store(original, tmp_path)
        assert original.store is None
        assert attached is not original
        assert attached.cache_size == 7
        assert attached.store.directory == tmp_path


class TestCacheCapWithStore:
    def test_store_hits_respect_cache_size_cap(self, tmp_path, config):
        """Regression: a warm store must not grow the LRU past its cap."""
        model = resnet34()
        BatchedCachedBackend(store=DecisionStore(tmp_path)).schedule_model(model, config)
        warm = BatchedCachedBackend(cache_size=4, store=DecisionStore(tmp_path))
        warm.schedule_model(model, config)
        assert warm.cache_info()["size"] <= 4

    def test_attach_store_preserves_subclass_and_state(self, tmp_path):
        from repro.backends import attach_store
        from repro.backends.batched import BatchedCachedBackend as _Base

        class Tuned(_Base):
            def __init__(self, threshold: float = 0.5) -> None:
                super().__init__()
                self.threshold = threshold

        attached = attach_store(Tuned(threshold=0.25), tmp_path)
        assert isinstance(attached, Tuned)
        assert attached.threshold == 0.25
        assert attached.store.directory == tmp_path
