"""Tests for the batch-serving front-end (`repro.serve`)."""

import threading
import time

import pytest

from repro.backends import AnalyticalBackend, BatchedCachedBackend, DecisionStore
from repro.core.config import ArrayFlexConfig
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import mobilenet_v1, resnet34
from repro.serve import (
    Request,
    SchedulingService,
    default_max_workers,
    suite_requests,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def config():
    return ArrayFlexConfig.paper_128x128()


@pytest.fixture(scope="module")
def reference(config):
    backend = AnalyticalBackend()
    return {
        ("ResNet-34", False): backend.schedule_model(resnet34(), config),
        ("ResNet-34", True): backend.schedule_model_conventional(resnet34(), config),
        ("MobileNetV1", False): backend.schedule_model(mobilenet_v1(), config),
    }


class TestConstruction:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SchedulingService(max_workers=0)

    def test_max_workers_auto_sized_from_cpu_count(self):
        assert default_max_workers() >= 1
        with SchedulingService() as service:
            assert service.max_workers == default_max_workers()

    def test_bad_request_type_rejected(self, config):
        from repro.serve import InvalidRequest

        with SchedulingService() as service:
            with pytest.raises(InvalidRequest):
                service.submit_many([42])
            # The typed error is a ValueError, so pre-daemon call sites
            # catching broadly keep working.
            with pytest.raises(ValueError):
                service.submit_many([42])


class TestScheduleMany:
    def test_futures_in_request_order(self, config, reference):
        with SchedulingService() as service:
            futures = [
                service.submit_future(request)
                for request in [(resnet34(), config), (mobilenet_v1(), config)]
            ]
            assert futures[0].result().layers == reference[("ResNet-34", False)].layers
            assert futures[1].result().layers == reference[("MobileNetV1", False)].layers

    def test_conventional_requests(self, config, reference):
        with SchedulingService() as service:
            [response] = service.submit_many(
                [Request(model=resnet34(), config=config, conventional=True)]
            )
        schedule = response.unwrap()
        assert schedule.accelerator == "Conventional"
        assert schedule.layers == reference[("ResNet-34", True)].layers

    def test_gemm_list_requests(self, config):
        gemms = [GemmShape(m=64, n=64, t=64, name="g")]
        with SchedulingService() as service:
            response = service.submit((gemms, config))
        assert len(response.unwrap().layers) == 1

    def test_duplicates_share_one_future(self, config):
        with SchedulingService() as service:
            futures = [service.submit_future((resnet34(), config)) for _ in range(3)]
            assert futures[0] is futures[1] is futures[2]
            stats = service.stats()
        assert stats["requests"] == 3
        assert stats["submitted"] == 1
        assert stats["deduplicated"] == 2

    def test_dedup_spans_calls(self, config):
        with SchedulingService() as service:
            first = service.submit_future((resnet34(), config))
            second = service.submit_future((resnet34(), config))
            assert first is second

    def test_distinct_configs_not_deduplicated(self, config):
        other = config.with_size(64, 64)
        with SchedulingService() as service:
            futures = [
                service.submit_future(request)
                for request in [(resnet34(), config), (resnet34(), other)]
            ]
            assert futures[0] is not futures[1]
            assert futures[0].result().rows == 128
            assert futures[1].result().rows == 64


class TestConcurrency:
    def test_concurrent_schedule_many_is_safe_and_exact(self, config, reference):
        """Many threads hammering one service agree with the reference."""
        service = SchedulingService(max_workers=8)
        errors = []
        configs = [config, config.with_size(64, 64), config.with_size(256, 256)]

        def hammer():
            try:
                for cfg in configs:
                    futures = [
                        service.submit_future(request)
                        for request in [(resnet34(), cfg), (mobilenet_v1(), cfg)]
                    ]
                    for future in futures:
                        future.result(timeout=60)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert not errors
            schedule = service.submit((resnet34(), config)).unwrap()
            assert schedule.layers == reference[("ResNet-34", False)].layers
        finally:
            service.close()

    def test_concurrent_writers_share_one_store(self, tmp_path, config):
        """Two services racing on one cache directory corrupt nothing."""
        reference = AnalyticalBackend().schedule_model(resnet34(), config)
        configs = [config, config.with_size(64, 64)]

        def run_service():
            backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
            with SchedulingService(backend=backend, max_workers=4) as service:
                service.submit_many(
                    [(model(), cfg) for model in (resnet34, mobilenet_v1) for cfg in configs]
                )

        threads = [threading.Thread(target=run_service) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        warm = BatchedCachedBackend(store=DecisionStore(tmp_path))
        assert warm.schedule_model(resnet34(), config).layers == reference.layers
        counters = warm.store.counters()  # nothing solved, so nothing put
        assert counters["merges"] == 0
        assert counters["pending_rows"] == 0


class TestStats:
    def test_stats_are_the_serving_counters(self, config):
        with SchedulingService(max_workers=2) as service:
            service.submit((resnet34(), config))
            service.submit((resnet34(), config))
            stats = service.stats()
        assert stats == {
            "max_workers": 2,
            "requests": 2,
            "submitted": 1,
            "deduplicated": 1,
            "timed_out": 0,
        }

    def test_stats_leave_buffered_store_rows_alone(self, config, tmp_path):
        """stats() is cheap enough for every /metrics scrape: it neither
        scans the disk nor flushes the rows the store has buffered."""
        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        with SchedulingService(backend=backend) as service:
            service.submit((mobilenet_v1(), config))  # new shard: merged
            service.submit((resnet34(), config))
            store = service.backend.store
            pending = store.counters()["pending_rows"]
            assert pending > 0  # resnet34's few fresh GEMMs wait for a merge
            stats = service.stats()
            assert store.counters()["pending_rows"] == pending
        assert not any(key.startswith("disk_") for key in stats)

    def test_stats_without_cache_dir_have_no_disk_counters(self, config):
        with SchedulingService() as service:
            service.submit((resnet34(), config))
            stats = service.stats()
        assert not any(key.startswith("disk_") for key in stats)

    def test_close_flushes_buffered_store_rows(self, config, tmp_path):
        """A closed service leaves everything it derived on disk, even
        rows its backend's store had buffered but not yet merged."""
        from repro.backends.decisions import decision_to_row

        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        service = SchedulingService(backend=backend)
        small = ArrayFlexConfig(rows=16, cols=16)
        gemms = [GemmShape(m=20, n=33, t=t) for t in (6, 7, 8)]
        rows = [
            {(gemm.m, gemm.n, gemm.t): decision_to_row(decision)}
            for gemm, decision in zip(gemms, BatchedCachedBackend()._decide_batch(gemms, small))
        ]
        backend.store.put_many(small.cache_key(), rows[0] | rows[1])  # new shard: merged
        backend.store.put_many(small.cache_key(), rows[2])  # 1 row < 2 on disk: buffered
        assert DecisionStore(tmp_path).stats()["entries"] == 2
        service.close()
        assert DecisionStore(tmp_path).stats()["entries"] == 3


class TestTotalsOnly:
    def test_totals_match_schedule_sums(self, config):
        with SchedulingService() as service:
            totals, schedule = (
                response.unwrap()
                for response in service.submit_many(
                    [
                        Request(model=resnet34(), config=config, totals_only=True),
                        Request(model=resnet34(), config=config),
                    ]
                )
            )
        assert totals.time_ns == schedule.total_time_ns
        assert totals.energy_nj == schedule.total_energy_nj

    def test_totals_and_schedule_requests_not_conflated(self, config):
        with SchedulingService() as service:
            futures = [
                service.submit_future(Request(model=resnet34(), config=config, totals_only=True)),
                service.submit_future(Request(model=resnet34(), config=config)),
            ]
            assert futures[0] is not futures[1]


class TestRegistryWorkloads:
    def test_string_request_resolves_through_registry(self, config, reference):
        with SchedulingService() as service:
            schedule = service.submit(("resnet34", config)).unwrap()
        assert schedule.model_name == "ResNet-34"
        assert schedule.layers == reference[("ResNet-34", False)].layers

    def test_string_and_object_requests_share_one_future(self, config):
        with SchedulingService() as service:
            futures = [
                service.submit_future(request)
                for request in [("resnet34", config), (resnet34(), config)]
            ]
            assert futures[0] is futures[1]

    def test_batch_suffix_is_a_distinct_identity(self, config):
        with SchedulingService() as service:
            futures = [
                service.submit_future(request)
                for request in [("gpt2_decode", config), ("gpt2_decode@bs8", config)]
            ]
            assert futures[0] is not futures[1]
            assert futures[1].result().model_name == "GPT-2-decode@bs8"

    def test_transformer_request_matches_direct_backend(self, config):
        workload = get_workload("bert_base")
        reference = AnalyticalBackend().schedule_model(workload, config)
        with SchedulingService() as service:
            schedule = service.submit((workload, config)).unwrap()
        assert schedule.layers == reference.layers

    def test_schedule_suite_futures_in_suite_order(self, config):
        with SchedulingService() as service:
            responses = service.submit_many(suite_requests("transformers", config))
            names = [response.unwrap().model_name for response in responses]
        assert names == ["BERT-Base", "GPT-2-decode", "ViT-B/16"]


class _StallingBackend(BatchedCachedBackend):
    """Backend whose model scheduling blocks until an event is set."""

    def __init__(self, gate: threading.Event):
        super().__init__()
        self.gate = gate

    def schedule_model(self, model, cfg, model_name=None):
        assert self.gate.wait(timeout=60), "test gate was never opened"
        return super().schedule_model(model, cfg, model_name=model_name)


class TestTimeouts:
    def test_timed_out_request_surfaces_as_marker(self, config):
        gate = threading.Event()
        with SchedulingService(backend=_StallingBackend(gate)) as service:
            try:
                [result] = service.submit_many([(resnet34(), config)], timeout=0.05)
            finally:
                gate.set()
            assert result.status == "timeout"
            assert result.model_name == "ResNet-34"
            assert result.timeout_s == 0.05
            assert service.stats()["timed_out"] == 1

    def test_per_request_timeout_overrides_call_default(self, config):
        gate = threading.Event()
        with SchedulingService(backend=_StallingBackend(gate)) as service:
            try:
                request = Request(model=resnet34(), config=config, timeout=0.05)
                [result] = service.submit_many([request])  # no call-level default
            finally:
                gate.set()
            assert result.status == "timeout"

    def test_timeout_does_not_poison_the_dedup_key(self, config, reference):
        """A retry after a timeout recomputes instead of re-awaiting."""
        gate = threading.Event()
        with SchedulingService(backend=_StallingBackend(gate)) as service:
            [first] = service.submit_many([(resnet34(), config)], timeout=0.05)
            assert first.status == "timeout"
            gate.set()
            [second] = service.submit_many([(resnet34(), config)], timeout=60)
            assert second.unwrap().layers == reference[("ResNet-34", False)].layers

    def test_compare_many_timeout_yields_marker_pairs(self, config):
        gate = threading.Event()
        with SchedulingService(backend=_StallingBackend(gate)) as service:
            try:
                [(arrayflex, conventional)] = service.compare(
                    [(resnet34(), config)], timeout=0.05
                )
            finally:
                gate.set()
            # Only the ArrayFlex side routes through the stalled
            # schedule_model; the response carries which side timed out.
            assert arrayflex.status == "timeout"
            assert arrayflex.conventional is False

    def test_timeout_never_cancels_a_shared_future(self, config, reference):
        """One caller's deadline must not destroy another's computation."""
        gate = threading.Event()
        backend = _StallingBackend(gate)
        with SchedulingService(backend=backend, max_workers=1) as service:
            # Occupy the only worker so the next submission stays queued
            # (a queued future is the one cancel() could actually kill).
            blocker = service.submit_future((mobilenet_v1(), config))
            # First caller: no deadline, plans to wait for the result.
            patient = service.submit_future((resnet34(), config))
            # Second caller: deduplicated onto the same queued future,
            # times out while everything is still gated.
            [result] = service.submit_many([(resnet34(), config)], timeout=0.05)
            assert result.status == "timeout"
            assert result.cancelled is False  # shared handle: not cancelled
            gate.set()
            assert patient.result(timeout=60).layers == (
                reference[("ResNet-34", False)].layers
            )
            blocker.result(timeout=60)

    def test_timeout_cancels_a_queued_sole_future(self, config):
        """The sole waiter's deadline does cancel queued work outright."""
        gate = threading.Event()
        with SchedulingService(
            backend=_StallingBackend(gate), max_workers=1
        ) as service:
            blocker = service.submit_future((mobilenet_v1(), config))
            try:
                [result] = service.submit_many([(resnet34(), config)], timeout=0.05)
            finally:
                gate.set()
            assert result.status == "timeout"
            assert result.cancelled is True
            blocker.result(timeout=60)

    def test_generous_timeout_returns_results(self, config, reference):
        with SchedulingService() as service:
            [response] = service.submit_many([(resnet34(), config)], timeout=60)
        assert response.unwrap().layers == reference[("ResNet-34", False)].layers

    def test_close_after_timeout_does_not_block_on_abandoned_work(self, config):
        """What the CLI does after a timeout: walk away, cancel the queue."""
        gate = threading.Event()
        service = SchedulingService(backend=_StallingBackend(gate), max_workers=1)
        try:
            running = service.submit_future((mobilenet_v1(), config))
            queued = service.submit_future((resnet34(), config))
            start = time.monotonic()
            service.close(wait=False, cancel_futures=True)
            assert time.monotonic() - start < 5.0  # did not join the gated task
            assert queued.cancelled()
        finally:
            gate.set()
        running.result(timeout=60)  # the running task still completes

    def test_waiter_bookkeeping_does_not_leak(self, config):
        """Dedup hits on completed futures must not recreate waiter entries."""
        with SchedulingService() as service:
            future = service.submit_future((resnet34(), config))
            future.result(timeout=60)
            for _ in range(3):  # dedup hits on the (memoised) done future
                service.submit_many([(resnet34(), config)])
            assert service._waiters == {}

    def test_timeout_field_not_part_of_dedup_identity(self, config):
        with SchedulingService() as service:
            futures = [
                service.submit_future(Request(model=resnet34(), config=config, timeout=1.0)),
                service.submit_future(Request(model=resnet34(), config=config, timeout=2.0)),
            ]
            assert futures[0] is futures[1]
            time.sleep(0)  # keep the futures referenced until both resolve


class TestSubmitCore:
    """The redesigned submit(Request) -> Response core and its adapters."""

    def test_submit_returns_ok_response(self, config, reference):
        from repro.serve import Request

        with SchedulingService() as service:
            response = service.submit(Request(model=resnet34(), config=config))
        assert response.ok
        assert response.status == "ok"
        assert response.model_name == "ResNet-34"
        assert response.unwrap().layers == reference[("ResNet-34", False)].layers

    def test_submit_accepts_tuple_shorthand(self, config):
        with SchedulingService() as service:
            response = service.submit((resnet34(), config))
        assert response.ok and response.model_name == "ResNet-34"

    def test_submit_many_marks_deduplicated_responses(self, config):
        with SchedulingService() as service:
            responses = service.submit_many(
                [(resnet34(), config), (resnet34(), config)]
            )
        assert [r.deduplicated for r in responses] == [False, True]
        assert responses[0].unwrap().layers == responses[1].unwrap().layers

    def test_compare_pairs_flex_and_conventional(self, config, reference):
        with SchedulingService() as service:
            [(arrayflex, conventional)] = service.compare([(resnet34(), config)])
        assert arrayflex.conventional is False
        assert conventional.conventional is True
        assert arrayflex.unwrap().layers == reference[("ResNet-34", False)].layers
        assert conventional.unwrap().layers == reference[("ResNet-34", True)].layers

    def test_timeout_response_unwrap_raises_typed_error(self, config):
        from repro.serve import RequestTimeout

        gate = threading.Event()
        with SchedulingService(backend=_StallingBackend(gate)) as service:
            try:
                response = service.submit((resnet34(), config), timeout=0.05)
            finally:
                gate.set()
            assert not response.ok
            assert response.status == "timeout"
            with pytest.raises(RequestTimeout):
                response.unwrap()


class TestCloseLifecycle:
    """close() is idempotent and safe around in-flight work (satellite of
    the daemon's graceful-drain path, which may race a with-block exit
    or a second signal)."""

    def test_close_is_idempotent(self, config):
        service = SchedulingService()
        assert service.closed is False
        service.close()
        assert service.closed is True
        service.close()  # second close: a no-op, not an error
        service.close(wait=False, cancel_futures=True)
        assert service.closed is True

    def test_context_manager_exit_after_explicit_close(self, config):
        with SchedulingService() as service:
            service.submit((resnet34(), config))
            service.close()
        assert service.closed  # __exit__ double-closed without raising

    def test_close_with_inflight_futures_waits_for_results(self, config):
        """A default close joins in-flight work; its futures still resolve."""
        gate = threading.Event()
        service = SchedulingService(backend=_StallingBackend(gate), max_workers=1)
        future = service.submit_future((resnet34(), config))
        closer = threading.Thread(target=service.close)
        closer.start()
        assert not future.done()  # close(wait=True) is blocked on the gate
        gate.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert future.result(timeout=60).model_name == "ResNet-34"

    def test_double_close_with_inflight_from_second_thread(self, config):
        """The drain/with-exit race: both closes return, nothing deadlocks."""
        gate = threading.Event()
        service = SchedulingService(backend=_StallingBackend(gate), max_workers=1)
        future = service.submit_future((resnet34(), config))
        gate.set()
        threads = [threading.Thread(target=service.close) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert service.closed
        assert future.result(timeout=60).model_name == "ResNet-34"

    def test_submit_after_close_fails_cleanly(self, config):
        service = SchedulingService()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit_future((resnet34(), config))


class TestFailureRecovery:
    def test_failed_future_is_not_cached(self, config):
        """A transient error must not poison the dedup key forever."""
        calls = {"n": 0}

        class FlakyBackend(BatchedCachedBackend):
            def schedule_model(self, model, cfg, model_name=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise OSError("transient store failure")
                return super().schedule_model(model, cfg, model_name=model_name)

        with SchedulingService(backend=FlakyBackend()) as service:
            first = service.submit_future((resnet34(), config))
            with pytest.raises(OSError):
                first.result(timeout=60)
            second = service.submit_future((resnet34(), config))
            assert second is not first
            assert second.result(timeout=60).model_name == "ResNet-34"
