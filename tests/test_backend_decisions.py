"""Tests for the columnar decision codec (`repro.backends.decisions`).

The codec is what makes the v2 store's zero-copy read path safe: every
row the backend writes must survive the list -> structured-record ->
list round trip bit-exactly, and a shard the codec cannot read back must
surface as corruption, never as silently-wrong numbers.  The
concurrent-writer stress test pins the store's merge-on-write guarantee
on the new format.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import AnalyticalBackend, BatchedCachedBackend
from repro.backends.decisions import (
    DECISION_DTYPE,
    DECISION_ROW_WIDTH,
    Decision,
    decision_from_row,
    decision_to_row,
    record_to_row,
    records_index,
    rows_to_records,
)
from repro.backends.store import DecisionStore
from repro.core.config import ArrayFlexConfig
from repro.nn.gemm_mapping import GemmShape
from repro.timing.power_model import ArrayPowerBreakdown

#: Finite doubles (NaN never compares equal, which the bit-exact == needs).
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive_int = st.integers(min_value=1, max_value=2**40)


@st.composite
def decision_rows(draw):
    """Arbitrary well-formed decision rows, as the backend would emit them."""
    power = [draw(finite) for _ in range(8)]
    return [
        draw(st.integers(min_value=1, max_value=64)),  # collapse_depth
        draw(positive_int),                            # cycles
        draw(finite),                                  # clock_frequency_ghz
        draw(finite),                                  # execution_time_ns
        draw(finite),                                  # analytical_depth
        draw(finite),                                  # activity
        draw(finite),                                  # array_utilization
        *power,
    ]


@st.composite
def keyed_rows(draw):
    """A shard's worth of decisions: distinct (m, n, t) keys -> rows."""
    keys = draw(
        st.lists(
            st.tuples(positive_int, positive_int, positive_int),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return {key: draw(decision_rows()) for key in keys}


class TestRowCodecRoundTrip:
    @given(decisions=keyed_rows())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_is_bit_identical(self, decisions):
        records = rows_to_records(decisions)
        assert records.dtype == DECISION_DTYPE
        index = records_index(records)
        assert set(index) == set(decisions)
        for key, row in decisions.items():
            decoded = record_to_row(records[index[key]])
            assert decoded == row  # == is bit-exact for int/float

    @given(row=decision_rows())
    @settings(max_examples=60, deadline=None)
    def test_decision_survives_the_full_store_codec(self, row):
        """Decision -> row -> record -> row -> Decision is the identity."""
        decision = decision_from_row(row)
        encoded = rows_to_records({(1, 2, 3): decision_to_row(decision)})
        assert decision_from_row(record_to_row(encoded[0])) == decision

    def test_row_width_matches_the_dtype(self):
        # 3 key columns + the decision row = the structured record.
        assert len(DECISION_DTYPE.names) == DECISION_ROW_WIDTH + 3

    def test_records_index_later_duplicates_win(self):
        array = np.concatenate(
            [
                rows_to_records({(1, 1, 1): [1, 1] + [0.0] * 13}),
                rows_to_records({(1, 1, 1): [2, 2] + [0.0] * 13}),
            ]
        )
        assert records_index(array) == {(1, 1, 1): 1}

    def test_malformed_inputs_rejected(self):
        good = [1, 1] + [0.0] * 13
        with pytest.raises(ValueError):
            rows_to_records({"1,1,1": good})
        with pytest.raises(ValueError):
            rows_to_records({(1, 1): good})
        with pytest.raises(ValueError):
            rows_to_records({(1, 1, 1): good[:-2]})


class TestBackendRowShapes:
    """The decision-producing backend's real rows fit the codec."""

    GEMM = GemmShape(m=20, n=33, t=40)

    def test_batched_backend_rows_round_trip(self):
        config = ArrayFlexConfig(rows=16, cols=16)
        backend = BatchedCachedBackend()
        decision = backend._decide_batch([self.GEMM], config)[0]
        encoded = rows_to_records({(20, 33, 40): decision_to_row(decision)})
        assert decision_from_row(record_to_row(encoded[0])) == decision

    def test_power_breakdown_reconstructs(self):
        power = ArrayPowerBreakdown(
            multiplier=1.0,
            carry_propagate_adder=2.0,
            carry_save_adder=3.0,
            bypass_muxes=4.0,
            register_data=5.0,
            register_clock=6.0,
            leakage=7.0,
            total_mw=28.0,
        )
        decision = Decision(
            collapse_depth=2,
            cycles=100,
            clock_frequency_ghz=1.7,
            execution_time_ns=58.8,
            analytical_depth=3.5,
            activity=0.5,
            array_utilization=0.9,
            power=power,
        )
        row = decision_to_row(decision)
        encoded = rows_to_records({(1, 1, 1): row})
        assert decision_from_row(record_to_row(encoded[0])).power == power


class TestCorruption:
    def test_truncated_npy_payload_warns_and_counts(self, tmp_path):
        config = ArrayFlexConfig(rows=16, cols=16)
        key = config.cache_key()
        writer = DecisionStore(tmp_path)
        writer.put_many(
            key,
            {(m, m, m): [1, 1] + [0.0] * 13 for m in range(1, 20)},
        )
        shard = next(tmp_path.glob("decisions-*.npy"))
        shard.write_bytes(shard.read_bytes()[:64])  # header survives, data gone
        reader = DecisionStore(tmp_path)
        with pytest.warns(RuntimeWarning, match=shard.name):
            assert reader.get(key, 1, 1, 1) is None
        assert reader.stats()["corrupt_shards"] >= 1

    def test_unreadable_sidecar_warns_and_counts(self, tmp_path):
        key = ("cfg",)
        DecisionStore(tmp_path).put_many(key, {(1, 1, 1): [1, 1] + [0.0] * 13})
        next(tmp_path.glob("decisions-*.meta.json")).write_text("{not json")
        reader = DecisionStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="meta.json"):
            assert reader.get(key, 1, 1, 1) is None
        assert reader.stats()["corrupt_shards"] >= 1

    def test_wrong_dtype_payload_is_corrupt_not_misread(self, tmp_path):
        key = ("cfg",)
        store = DecisionStore(tmp_path)
        store.put_many(key, {(1, 1, 1): [1, 1] + [0.0] * 13})
        shard = next(tmp_path.glob("decisions-*.npy"))
        np.save(shard, np.zeros(4))  # plain float64 vector
        reader = DecisionStore(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert reader.get(key, 1, 1, 1) is None


def _stress_writer(args):
    """Worker: merge one slice of rows into a shared shard, many times."""
    directory, worker, rounds = args
    store = DecisionStore(directory)
    key = ("stress",)
    for round_index in range(rounds):
        store.put_many(
            key,
            {
                (worker, round_index, offset): [1, worker + 1]
                + [float(round_index)] * 13
                for offset in range(5)
            },
        )
    return worker


class TestConcurrentWriters:
    def test_parallel_merges_corrupt_nothing_and_keep_the_last_merge(self, tmp_path):
        """Four processes hammering one shard: racing replaces may drop a
        merge that another writer's read-modify-write overlapped (lost
        work is re-derivable — 'lose at most duplicated work'), but the
        shard must stay readable, every surviving row must be bit-correct,
        and the chronologically last replace — the final round of whichever
        writer finished last — must be fully present."""
        workers, rounds = 4, 6
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(
                pool.map(
                    _stress_writer,
                    [(str(tmp_path), worker, rounds) for worker in range(workers)],
                )
            )
        assert sorted(done) == list(range(workers))
        store = DecisionStore(tmp_path)
        view = store.load(("stress",))
        assert store.stats()["corrupt_shards"] == 0
        assert len(view) >= 5  # at least one whole merge survived
        for key in view.keys():
            worker, round_index, offset = key
            row = view.get(key)
            assert row[1] == worker + 1  # never torn or cross-writer garbage
            assert row[2:15] == [float(round_index)] * 13
        complete_final_rounds = [
            worker
            for worker in range(workers)
            if all((worker, rounds - 1, offset) in view for offset in range(5))
        ]
        assert complete_final_rounds  # the last os.replace is someone's final merge

    def test_interleaved_thread_writers_preserve_every_key(self, tmp_path):
        import threading

        store = DecisionStore(tmp_path)
        key = ("threads",)

        def write(worker):
            for i in range(20):
                store.put_many(
                    key, {(worker, i, 0): [1, 1] + [float(worker)] * 13}
                )

        threads = [threading.Thread(target=write, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.flush()  # single-row writes wait in the buffer for a merge
        view = DecisionStore(tmp_path).load(key)
        assert len(view) == 80  # one lock, no lost updates

    def test_store_pickles_into_pool_workers(self, tmp_path):
        """The store object itself crosses process boundaries (sweeps ship
        backend+store to workers), reopening the same directory."""
        store = DecisionStore(tmp_path)
        store.put_many(("p",), {(1, 1, 1): [1, 1] + [0.0] * 13})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get(("p",), 1, 1, 1) is not None


class TestWarmEqualsCold:
    """Acceptance: warm-store sweeps equal cold runs bit-for-bit."""

    WORKLOAD = [
        GemmShape(m=20, n=33, t=6),
        GemmShape(m=24, n=40, t=300),
        GemmShape(m=64, n=64, t=64),
    ]

    def test_batched_warm_equals_cold_and_reference(self, tmp_path):
        config = ArrayFlexConfig(rows=16, cols=16)
        reference = AnalyticalBackend().schedule_model(self.WORKLOAD, config)
        cold = BatchedCachedBackend(store=DecisionStore(tmp_path))
        assert cold.schedule_model(self.WORKLOAD, config).layers == reference.layers
        warm = BatchedCachedBackend(store=DecisionStore(tmp_path))
        assert warm.schedule_model(self.WORKLOAD, config).layers == reference.layers
        assert warm.cache_info()["misses"] == 0
