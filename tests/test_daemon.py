"""HTTP-layer tests for the scheduler daemon (`repro.serve.daemon`).

Covers the acceptance criteria end to end: wire parity with direct
library calls (bit-identical floats), queue-depth backpressure (429),
per-client rate limits, the concurrency hammer (no lost counter
updates), graceful drain — including a real SIGTERM against a
``python -m repro serve`` subprocess — and live /metrics and /healthz.
"""

import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.backends import BatchedCachedBackend, DecisionStore
from repro.cli import main
from repro.core.config import ArrayFlexConfig
from repro.nn.gemm_mapping import GemmShape
from repro.serve import (
    PROTOCOL_VERSION,
    AdmissionRejected,
    DaemonClient,
    InvalidRequest,
    RateLimited,
    Request,
    RequestTimeout,
    SchedulerDaemon,
    SchedulingService,
    ServeError,
    response_to_wire,
)
from repro.serve.daemon import READ_TIMEOUT_S
from repro.serve.middleware import TokenBucket

#: Small explicit GEMM workloads: fast to schedule, wire-travelable.
GEMMS_A = [[64, 576, 3136, "conv_a"]]
GEMMS_B = [[512, 2304, 49, "conv_b"]]
WIRE_CONFIG = {"rows": 128, "cols": 128, "depths": [1, 2, 4]}


def wire_request(model, **overrides):
    payload = {"v": PROTOCOL_VERSION, "model": model, "config": dict(WIRE_CONFIG)}
    payload.update(overrides)
    return payload


def sample(body: dict, family: str, **labels) -> dict:
    """The one sample of ``family`` with exactly ``labels`` in a /metrics JSON body."""
    (match,) = [s for s in body["metrics"][family] if s["labels"] == labels]
    return match


@pytest.fixture()
def daemon():
    """A live daemon on an ephemeral port, drained at teardown."""
    daemon = SchedulerDaemon(port=0, max_inflight=32)
    daemon.start()
    try:
        yield daemon
    finally:
        assert daemon.drain(timeout=30)


@pytest.fixture()
def client(daemon):
    return DaemonClient(port=daemon.address[1])


class _StallingBackend(BatchedCachedBackend):
    """Backend whose model scheduling blocks until an event is set."""

    def __init__(self, gate: threading.Event):
        super().__init__()
        self.gate = gate

    def schedule_model(self, model, cfg, model_name=None):
        assert self.gate.wait(timeout=60), "test gate was never opened"
        return super().schedule_model(model, cfg, model_name=model_name)


def _stalling_daemon(**kwargs):
    gate = threading.Event()
    service = SchedulingService(backend=_StallingBackend(gate))
    daemon = SchedulerDaemon(service, port=0, **kwargs)
    daemon.start()
    return daemon, gate


class TestConstruction:
    """Arguments the daemon would ignore are refused before it builds
    a thread pool."""

    @pytest.mark.parametrize(
        "ignored", [{"max_workers": 8}, {"backend": "batched"}], ids=["max_workers", "backend"]
    )
    def test_ready_service_refuses_its_own_arguments(self, ignored):
        service = SchedulingService(max_workers=2)
        try:
            with pytest.raises(InvalidRequest, match="not both"):
                SchedulerDaemon(service, port=0, **ignored)
            assert service.max_workers == 2
        finally:
            service.close()

    def test_burst_without_rate_is_refused(self, monkeypatch):
        with pytest.raises(InvalidRequest, match="burst needs a rate"):
            TokenBucket(None, 5.0)
        monkeypatch.setattr(
            "repro.serve.daemon.SchedulingService",
            lambda **kwargs: pytest.fail("a refused daemon built a service"),
        )
        with pytest.raises(InvalidRequest, match="burst needs a rate"):
            SchedulerDaemon(port=0, rate_burst=5)

    def test_serve_rate_burst_without_rate_limit_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(
            SchedulerDaemon,
            "install_signal_handlers",
            lambda self: pytest.fail("serve started despite a burst without a rate"),
        )
        assert main(["serve", "--port", "0", "--rate-burst", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: error: a rate-limit burst needs a rate limit\n"


class TestHealthz:
    def test_healthz_reports_liveness(self, client, daemon):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["v"] == PROTOCOL_VERSION
        assert body["inflight"] == 0
        assert body["max_inflight"] == 32
        assert body["uptime_s"] >= 0.0


class TestKeepAlive:
    def test_reused_connection_does_not_stall_replies(self, daemon):
        """Replies on one HTTP/1.1 connection never wait for a delayed ACK
        (~40 ms per reply when headers and body go out as two writes)."""
        # A long model_name pads each response to ~4.6 KB, so 16 of them
        # make a batch reply well over 64 KB at negligible compute cost.
        batch = {
            "v": PROTOCOL_VERSION,
            "requests": [
                wire_request(GEMMS_A, model_name=f"{i}-" + "x" * 2048)
                for i in range(16)
            ],
        }
        connection = HTTPConnection("127.0.0.1", daemon.address[1], timeout=10)

        def timed_ms(method, path, body=None):
            payload = None if body is None else json.dumps(body).encode("utf-8")
            started = time.perf_counter()
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            reply = response.read()
            assert response.status == 200
            return 1e3 * (time.perf_counter() - started), len(reply)

        try:
            timed_ms("POST", "/v1/batch", batch)  # compute the decisions once
            health = [timed_ms("GET", "/healthz")[0] for _ in range(10)]
            batches = [timed_ms("POST", "/v1/batch", batch) for _ in range(3)]
        finally:
            connection.close()
        assert all(size > 64 * 1024 for _, size in batches)
        assert statistics.median(health) < 20.0
        assert statistics.median(ms for ms, _ in batches) < 20.0


class TestScheduleParity:
    """Daemon responses are bit-identical to direct SchedulingService calls."""

    @staticmethod
    def _strip(body):
        body = dict(body)
        body.pop("deduplicated", None)  # cache provenance, not the answer
        return body

    def test_schedule_matches_direct_service(self, client):
        request = Request(
            model="resnet34", config=ArrayFlexConfig.paper_128x128()
        )
        with SchedulingService() as direct:
            expected = response_to_wire(direct.submit(request))
        body = client.schedule(request)
        assert self._strip(body) == self._strip(
            json.loads(json.dumps(expected))
        )
        assert body["result"]["kind"] == "schedule"

    def test_gemm_list_and_totals_only(self, client):
        body = client.schedule(wire_request(GEMMS_A, totals_only=True))
        assert body["status"] == "ok"
        assert body["result"]["kind"] == "totals"
        with SchedulingService() as direct:
            expected = direct.submit(
                Request(
                    model="resnet34", config=ArrayFlexConfig.paper_128x128()
                )
            )
        assert body["result"]["time_ns"] > 0
        assert expected.ok  # the direct path stays healthy alongside

    def test_batch_endpoint_parity_and_dedup(self, client):
        body = client.batch(
            [wire_request(GEMMS_A), wire_request(GEMMS_B), wire_request(GEMMS_A)]
        )
        assert body["count"] == 3
        first, second, third = body["responses"]
        assert all(item["status"] == "ok" for item in body["responses"])
        assert third["deduplicated"] is True
        assert self._strip(first) == self._strip(third)
        assert first["result"] != second["result"]

    def test_compare_endpoint_pairs_both_sides(self, client):
        body = client.compare([wire_request(GEMMS_A)])
        assert body["count"] == 1
        [[flex, conv]] = body["pairs"]
        assert flex["conventional"] is False
        assert conv["conventional"] is True
        with SchedulingService() as direct:
            [(dflex, dconv)] = direct.compare(
                [
                    (
                        [GemmShape(m=64, n=576, t=3136, name="conv_a")],
                        ArrayFlexConfig.paper_128x128(),
                    )
                ]
            )
        assert flex["result"]["time_ns"] == dflex.unwrap().total_time_ns
        assert conv["result"]["time_ns"] == dconv.unwrap().total_time_ns

    def test_compare_rejects_preset_conventional(self, client):
        with pytest.raises(InvalidRequest, match="conventional"):
            client.compare([wire_request(GEMMS_A, conventional=True)])


class TestWireErrors:
    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeError) as info:
            client._call("GET", "/v2/schedule")
        assert "no such endpoint" in str(info.value)

    def test_wrong_protocol_version_is_invalid_request(self, client):
        with pytest.raises(InvalidRequest, match="protocol version"):
            client.schedule(wire_request(GEMMS_A, v=99))

    def test_unknown_request_field_is_invalid_request(self, client):
        with pytest.raises(InvalidRequest, match="converntional"):
            client.schedule(wire_request(GEMMS_A, converntional=True))

    def test_batch_requires_request_list(self, client):
        with pytest.raises(InvalidRequest, match="requests"):
            client._call("POST", "/v1/batch", {"v": PROTOCOL_VERSION, "requests": []})

    def test_raw_garbage_body_is_400(self, daemon):
        connection = HTTPConnection("127.0.0.1", daemon.address[1], timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/schedule",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_missing_body_is_400(self, daemon):
        connection = HTTPConnection("127.0.0.1", daemon.address[1], timeout=10)
        try:
            connection.request("POST", "/v1/schedule")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid_request"


    @pytest.mark.parametrize(
        ("endpoint", "body"),
        [
            ("/v1/schedule", '{"v": 1, "model": "nope"}'),
            ("/v1/schedule", '{"v": 1, "model": "nope@bsX"}'),
            ("/v1/schedule", '{"v": 1, "model": "resnet34@bs0"}'),
            ("/v1/schedule", '{"v": 1, "model": "resnet34@bs99999999999999999999"}'),
            ("/v1/schedule", '{"v": 1, "model": "resnet34", "config": {"rows": Infinity}}'),
            ("/v1/schedule", '{"v": 1, "model": "resnet34", "config": {"rows": 1e30}}'),
            (
                "/v1/schedule",
                '{"v": 1, "model": "resnet34", '
                '"config": {"rows": 4611686018427387904, "cols": 4611686018427387904}}',
            ),
            ("/v1/schedule", '{"v": 1, "model": [[Infinity, 64, 64]]}'),
            ("/v1/schedule", '{"v": 1, "model": [[10000000000000000000, 64, 64]]}'),
            ("/v1/schedule", '{"v": 1, "model": [[67108864, 67108864, 67108864]]}'),
            ("/v1/schedule", '{"v": 1, "model": [[1099511627776, 1099511627776, 1099511627776]]}'),
            ("/v1/schedule", '{"v": 1, "model": "resnet34", "timeout": Infinity}'),
            ("/v1/schedule", '{"v": 1, "model": "resnet34", "timeout": NaN}'),
            (
                "/v1/batch",
                '{"v": 1, "requests": [{"v": 1, "model": "resnet34", '
                '"config": {"cols": -Infinity}}]}',
            ),
        ],
    )
    def test_bad_client_input_is_400_never_500(self, daemon, endpoint, body):
        """Unknown names, non-finite or out-of-range numbers and layers
        the engine cannot count in int64 are the client's fault."""
        connection = HTTPConnection("127.0.0.1", daemon.address[1], timeout=30)
        try:
            connection.request("POST", endpoint, body=body.encode())
            response = connection.getresponse()
            reply = json.loads(response.read())
        finally:
            connection.close()
        assert (response.status, reply["error"]["code"]) == (400, "invalid_request")


class TestBackpressure:
    def test_saturated_queue_sheds_with_429(self):
        """Beyond max_inflight the daemon rejects instead of deadlocking."""
        daemon, gate = _stalling_daemon(max_inflight=1)
        client = DaemonClient(port=daemon.address[1])
        results = {}

        def occupy():
            results["first"] = client.schedule(wire_request(GEMMS_A))

        occupant = threading.Thread(target=occupy)
        occupant.start()
        try:
            deadline = time.monotonic() + 10
            while daemon.gate.depth < 1:
                assert time.monotonic() < deadline, "first request never admitted"
                time.sleep(0.01)
            started = time.monotonic()
            with pytest.raises(AdmissionRejected) as info:
                client.schedule(wire_request(GEMMS_B))
            assert time.monotonic() - started < 5.0  # shed, not queued
            assert info.value.retry_after_s is not None
            assert info.value.http_status == 429
        finally:
            gate.set()
            occupant.join(timeout=60)
        assert results["first"]["status"] == "ok"
        rejected = sample(
            client.metrics(),
            "daemon_rejections_total",
            endpoint="/v1/schedule",
            code="admission_rejected",
        )
        assert rejected["value"] == 1
        assert daemon.drain(timeout=30)

    def test_retry_after_header_on_429(self):
        daemon, gate = _stalling_daemon(max_inflight=1)
        try:
            client = DaemonClient(port=daemon.address[1])
            blocker = threading.Thread(
                target=lambda: client.schedule(wire_request(GEMMS_A))
            )
            blocker.start()
            deadline = time.monotonic() + 10
            while daemon.gate.depth < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            connection = HTTPConnection("127.0.0.1", daemon.address[1], timeout=10)
            try:
                connection.request(
                    "POST",
                    "/v1/schedule",
                    body=json.dumps(wire_request(GEMMS_B)).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 429
                assert float(response.headers["Retry-After"]) > 0
            finally:
                connection.close()
        finally:
            gate.set()
            blocker.join(timeout=60)
        assert daemon.drain(timeout=30)


class TestStalledBody:
    def test_stalled_body_holds_no_admission_slot(self):
        """A client that stops mid-body takes no rate-limit token and no
        slot: the next client is served, and the read deadline then drops
        the stalled connection without a reply, so the drain completes."""
        daemon = SchedulerDaemon(port=0, max_inflight=1)
        daemon.start()
        stalled = socket.create_connection(daemon.address, timeout=30)
        try:
            stalled.sendall(
                b"POST /v1/schedule HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                b'{"v": 1'
            )
            time.sleep(0.2)  # the handler thread is now blocked on the body
            client = DaemonClient(port=daemon.address[1])
            assert client.schedule(wire_request(GEMMS_A))["status"] == "ok"
            assert daemon.drain(timeout=5)
            assert stalled.recv(4096) == b""  # closed, no 500 (or any) reply
        finally:
            stalled.close()
        assert daemon.registry.family("daemon_rejections_total") == []


class TestStdlibHttpLimits:
    """Limits the daemon inherits from :mod:`http.server`, pinned."""

    @staticmethod
    def _status_line(daemon, payload: bytes) -> bytes:
        with socket.create_connection(daemon.address, timeout=10) as sock:
            sock.sendall(payload)
            return sock.makefile("rb").readline()

    def test_long_request_line_is_414(self, daemon):
        line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
        assert self._status_line(daemon, line).startswith(b"HTTP/1.1 414 ")

    def test_too_many_headers_is_431(self, daemon):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        request = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        assert self._status_line(daemon, request) == b"HTTP/1.1 431 Too many headers\r\n"

    def test_long_header_line_is_431(self, daemon):
        request = b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n"
        assert self._status_line(daemon, request) == b"HTTP/1.1 431 Line too long\r\n"

    @pytest.mark.parametrize("stalled", [False, True])
    def test_open_connection_delays_drain_at_most_the_read_deadline(self, stalled):
        """An idle keep-alive connection, or one stalled mid-headers, holds
        no admission slot: the drain finishes within ``READ_TIMEOUT_S``."""
        daemon = SchedulerDaemon(port=0)
        daemon.start()
        sock = socket.create_connection(daemon.address, timeout=10)
        try:
            if stalled:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            else:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert sock.makefile("rb").readline().startswith(b"HTTP/1.1 200 ")
            time.sleep(0.1)  # the handler is now blocked reading
            started = time.monotonic()
            daemon.request_drain()
            assert daemon.drain(timeout=10)
            assert time.monotonic() - started < READ_TIMEOUT_S
        finally:
            sock.close()


class TestRateLimit:
    def test_token_bucket_refuses_with_503(self):
        daemon = SchedulerDaemon(port=0, rate_limit=0.01, rate_burst=2)
        daemon.start()
        try:
            client = DaemonClient(port=daemon.address[1], client_id="hammer")
            client.schedule(wire_request(GEMMS_A))
            client.schedule(wire_request(GEMMS_A))  # burst exhausted
            with pytest.raises(RateLimited) as info:
                client.schedule(wire_request(GEMMS_A))
            assert info.value.retry_after_s > 0
            assert info.value.http_status == 503
            # A different client owns a different (full) bucket.
            other = DaemonClient(port=daemon.address[1], client_id="other")
            assert other.schedule(wire_request(GEMMS_A))["status"] == "ok"
            clients = sample(daemon.metrics_payload(), "daemon_rate_limit_clients")
            assert clients["value"] == 2
        finally:
            assert daemon.drain(timeout=30)

    def test_refilled_buckets_are_dropped(self):
        """100,000 distinct clients 1 ms apart (fake clock): each bucket is
        full again 0.1 s after its one request, so the limiter holds about
        the last hundred, never one bucket per id ever seen."""
        now = [0.0]
        limiter = TokenBucket(10.0, 5.0, clock=lambda: now[0])
        peak = 0
        for index in range(100_000):
            now[0] = index * 1e-3
            limiter.admit(f"client-{index}")
            peak = max(peak, limiter.clients())
        assert peak <= 1_000
        # A swept client starts over with a full bucket.
        for _ in range(5):
            limiter.admit("client-0")
        with pytest.raises(RateLimited):
            limiter.admit("client-0")

    def test_retry_after_is_the_exact_refill_time(self):
        """Retry-After is the time until the bucket holds a whole token,
        rounded up to the next hundredth of a second (fake clock)."""
        now = [0.0]
        limiter = TokenBucket(4.0, 1.0, clock=lambda: now[0])
        limiter.admit("client")
        retries = []
        for now[0] in (0.0, 0.125, 0.1875):
            with pytest.raises(RateLimited) as refused:
                limiter.admit("client")
            retries.append(refused.value.retry_after_s)
        # 1, 0.5 and 0.25 tokens short at 4 tokens/s: 0.25 s, 0.125 s and
        # 0.0625 s, the last two rounded up.
        assert retries == [0.25, 0.13, 0.07]

    @pytest.mark.parametrize(
        "rate, burst",
        [(math.nan, None), (5.0, math.nan), (math.inf, None), (5.0, math.inf)],
    )
    def test_non_finite_buckets_are_refused(self, rate, burst):
        """A NaN or infinite rate or burst would build a limiter that
        reports itself enabled and admits every request."""
        with pytest.raises(InvalidRequest, match="finite"):
            TokenBucket(rate, burst)

    def test_get_endpoints_are_never_rate_limited(self):
        daemon = SchedulerDaemon(port=0, rate_limit=0.01, rate_burst=1)
        daemon.start()
        try:
            client = DaemonClient(port=daemon.address[1], client_id="probe")
            client.schedule(wire_request(GEMMS_A))
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
        finally:
            assert daemon.drain(timeout=30)


class TestRequestDeadline:
    def test_schedule_deadline_maps_to_504(self):
        daemon, gate = _stalling_daemon(default_timeout=0.05)
        try:
            client = DaemonClient(port=daemon.address[1])
            with pytest.raises(RequestTimeout) as info:
                client.schedule(wire_request(GEMMS_A))
            assert info.value.http_status == 504
        finally:
            gate.set()
            assert daemon.drain(timeout=30)

    def test_batch_reports_timeouts_per_item(self):
        """A batch never fails wholesale: timed-out items say so in place."""
        daemon, gate = _stalling_daemon(default_timeout=0.05)
        try:
            client = DaemonClient(port=daemon.address[1])
            body = client.batch([wire_request(GEMMS_A)])
            assert body["responses"][0]["status"] == "timeout"
        finally:
            gate.set()
            assert daemon.drain(timeout=30)


class TestConcurrencyHammer:
    def test_no_lost_updates_under_concurrent_load(self, daemon):
        """N threads hammering /v1/schedule: every request is counted,
        dedup collapses identical work, nothing deadlocks or errors."""
        threads, per_thread = 8, 5
        port = daemon.address[1]
        errors = []

        def hammer(index):
            client = DaemonClient(port=port, client_id=f"hammer-{index}")
            try:
                for i in range(per_thread):
                    model = GEMMS_A if (index + i) % 2 == 0 else GEMMS_B
                    body = client.schedule(wire_request(model))
                    assert body["status"] == "ok"
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(index,)) for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not errors
        total = threads * per_thread
        body = DaemonClient(port=port).metrics()
        assert sample(body, "daemon_requests_total", endpoint="/v1/schedule")["value"] == total
        outcomes = sample(body, "daemon_outcomes_total", endpoint="/v1/schedule", outcome="ok")
        assert outcomes["value"] == total
        assert sample(body, "service_requests_total")["value"] == total
        # Two distinct request identities: everything else deduplicated.
        assert sample(body, "service_submitted_total")["value"] == 2
        assert sample(body, "service_deduplicated_total")["value"] == total - 2
        histogram = sample(body, "daemon_latency_ms", backend="batched")
        assert histogram["count"] == total
        assert histogram["buckets"]["+Inf"] == total


class TestMetrics:
    def test_metrics_merge_daemon_and_service(self):
        daemon = SchedulerDaemon(port=0)
        daemon.start()
        try:
            client = DaemonClient(port=daemon.address[1])
            client.schedule(wire_request(GEMMS_A))
            client.schedule(wire_request(GEMMS_A))
            body = client.metrics()
            assert body["v"] == PROTOCOL_VERSION
            assert sample(body, "daemon_requests_total", endpoint="/v1/schedule")["value"] == 2
            assert sample(body, "service_requests_total")["value"] == 2
            assert sample(body, "service_deduplicated_total")["value"] == 1
            assert sample(body, "daemon_inflight")["value"] == 0
            assert sample(body, "daemon_uptime_seconds")["value"] >= 0
            families = set(body["metrics"])
            assert not any(name.startswith(("store", "backend_cache_")) for name in families)
            assert "daemon_rate_limit_clients" not in families  # no rate limit set
        finally:
            assert daemon.drain(timeout=30)


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_flushes_store(self, tmp_path):
        """A caller may hand the daemon a store-backed service; the drain
        closes that service, which flushes the store."""
        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        daemon = SchedulerDaemon(SchedulingService(backend=backend), port=0)
        daemon.start()
        port = daemon.address[1]
        client = DaemonClient(port=port)
        assert client.schedule(wire_request(GEMMS_A))["status"] == "ok"
        assert daemon.drain(timeout=30)
        assert daemon.service.closed
        assert DecisionStore(tmp_path).stats()["entries"] > 0
        with pytest.raises(OSError):
            client.healthz()  # the listening socket is gone

    def test_request_drain_is_idempotent(self):
        daemon = SchedulerDaemon(port=0)
        daemon.start()
        daemon.request_drain()
        daemon.request_drain()
        assert daemon.drain(timeout=30)

    def test_sigterm_drains_a_real_serve_process(self, tmp_path):
        """`python -m repro serve` + SIGTERM: graceful drain, exit 0, and
        nothing written under any cache or home directory."""
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(repo / "src")
        for variable in ("XDG_CACHE_HOME", "REPRO_CACHE_DIR", "HOME"):
            env[variable] = str(tmp_path)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=repo,
        )
        try:
            banner = process.stdout.readline()
            assert "http://" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            client = DaemonClient(port=port)
            deadline = time.monotonic() + 15
            while True:
                try:
                    assert client.healthz()["status"] == "ok"
                    break
                except OSError:
                    assert time.monotonic() < deadline, "daemon never came up"
                    time.sleep(0.05)
            assert client.schedule(wire_request(GEMMS_A))["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0
        assert "drained" in out
        assert list(tmp_path.iterdir()) == []


class TestCliClient:
    def test_client_healthz_and_schedule(self, daemon, capsys):
        port = str(daemon.address[1])
        assert main(["client", "--port", port, "healthz"]) == 0
        assert '"status": "ok"' in capsys.readouterr().out
        assert main(["client", "--port", port, "schedule", "--model", "resnet34"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-34 [arrayflex]" in out and "ms" in out

    def test_client_compare_reports_saving(self, daemon, capsys):
        port = str(daemon.address[1])
        assert main(["client", "--port", port, "compare", "--model", "resnet34"]) == 0
        out = capsys.readouterr().out
        assert "[conventional]" in out
        assert "latency saving" in out

    def test_client_unreachable_daemon_exits_1(self, capsys):
        assert main(["client", "--port", "1", "healthz"]) == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_client_error_exit_codes_match_hierarchy(self, capsys):
        daemon = SchedulerDaemon(port=0, rate_limit=0.01, rate_burst=1)
        daemon.start()
        try:
            port = str(daemon.address[1])
            # Exhaust the shared (per-host) bucket, then the CLI is throttled.
            DaemonClient(port=daemon.address[1]).schedule(wire_request(GEMMS_A))
            code = main(["client", "--port", port, "schedule", "--model", "resnet34"])
            assert code == RateLimited.exit_code == 4
            assert "rate_limited" in capsys.readouterr().err
        finally:
            assert daemon.drain(timeout=30)

    def test_client_rejects_backend_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "batched", "client", "healthz"])
        assert excinfo.value.code == 2
