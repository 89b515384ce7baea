"""Workload ``serve_mixed``: open-loop traffic to the scheduler daemon.

The daemon runs as ``python -m repro serve --port 0`` (started through
:mod:`launch_daemon`) in its default set-up: batched backend, thread
executor, decision store in an empty ``XDG_CACHE_HOME``.  One generator
thread drives at most ``nproc`` concurrent connections with asyncio, one
per request as :class:`repro.serve.DaemonClient` opens them.

Traffic: ~70% ``/v1/schedule``, ~20% ``/v1/batch`` (4 items), ~10%
``/v1/compare`` (2 items).  Items draw from the 8 registry workloads x
square geometries 16-256 x batch sizes 1-64; half of them come from a
small hot set (service dedup and decision-LRU hits), half are fresh
(backend solves and store writes).

Arrivals are Poisson at fixed absolute rates, and every latency is taken
from the moment the request was *due*, so a stall also charges the
requests queued behind it; the generator's own lateness is reported.
Phases, each on a freshly started daemon of its own: a closed loop over
the mix (capacity, the result line's ``throughput_per_s``); hot-set
requests alone at the ``low`` rate (the dedup fast path); and the ladder
``low`` / two rungs / ``high`` for goodput (highest rate with p99 <= 25
ms, no failure and no growing backlog).  Every reply is compared bit for
bit with :class:`AnalyticalBackend`.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import urllib.request
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.backends import AnalyticalBackend
from repro.core.config import ArrayFlexConfig
from repro.workloads import list_workloads

import layers
from common import (
    BENCH_DIR,
    ROOT,
    WorkDir,
    child_env,
    dir_bytes,
    percentile,
    split_cpus,
    vmhwm_mb,
)

#: Offered rates, req/s, with the share of ``--seconds`` each runs for.
#: Fixed so that two commits see identical load.  The mix's closed-loop
#: capacity with 2 connections on a 2-core x86-64 VM measured ~250-350
#: req/s on a quiet host and ~150-200 on a busy one: ``low`` stays near
#: 15-25% of it, so its latency tracks service time rather than queueing,
#: and ``high`` near 50-100%; the rungs between complete the goodput
#: ladder, run in ascending order.
LADDER = (("low", 40.0, 0.25), ("rung70", 70.0, 0.08), ("rung100", 100.0, 0.08), ("high", 150.0, 0.12))
#: The mix in a closed loop (capacity), and hot-set requests only at the
#: ``low`` rate (the dedup fast path), each on a daemon of its own.
MIX_SHARE, HOT_PHASE_SHARE = 0.3, 0.1
#: Untimed traffic at the ``low`` rate first, so the lazy set-up a daemon
#: pays once (first requests, first geometries) is not timed; its replies
#: are still checked.
WARMUP_SHARE = 0.1
P99_LIMIT_MS = 25.0
#: A generator that woke this late (p99, ms) cannot vouch for its schedule.
LATE_LIMIT_MS = 5.0

ENDPOINTS = (("/v1/schedule", 0.7), ("/v1/batch", 0.2), ("/v1/compare", 0.1))
ITEMS_PER_CALL = {"/v1/schedule": 1, "/v1/batch": 4, "/v1/compare": 2}
SIZES = tuple(range(16, 257, 8))
BATCH_SIZES = tuple(range(1, 65))
HOT_ITEMS = 16
HOT_ITEM_SHARE = 0.5
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: The generator runs on its own core, the daemon on the others.
CPUS = split_cpus()


def _pin_generator() -> None:
    if CPUS is not None:
        os.sched_setaffinity(0, CPUS[0])


# ---------------------------------------------------------------------- #
# Traffic
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Item:
    model: str
    size: int
    conventional: bool
    totals_only: bool

    def wire(self) -> dict:
        body: dict = {"v": 1, "model": self.model, "config": {"rows": self.size, "cols": self.size}}
        if self.conventional:
            body["conventional"] = True
        if self.totals_only:
            body["totals_only"] = True
        return body


@dataclass(frozen=True)
class Call:
    path: str
    body: bytes
    items: tuple[Item, ...]


class Traffic:
    """Seeded request stream of the mix above."""

    def __init__(self, seed: int, stream: str) -> None:
        # One stream per daemon, so how many requests a closed loop drew
        # (which depends on host speed) never shifts another part's inputs.
        self.rng = random.Random(f"{seed}:{stream}")
        self.models = list_workloads()
        self._order: list[str] = []
        self.hot = [self._fresh(conventional_ok=True) for _ in range(HOT_ITEMS)]

    def _model(self) -> str:
        """Registry names in successive seeded shuffles, so every run mixes
        the workloads in equal shares and only their order and sizes vary."""
        if not self._order:
            self._order = self.rng.sample(self.models, len(self.models))
        return self._order.pop()

    def _fresh(self, conventional_ok: bool) -> Item:
        rng = self.rng
        batch = rng.choice(BATCH_SIZES)
        name = self._model()
        return Item(
            model=name if batch == 1 else f"{name}@bs{batch}",
            size=rng.choice(SIZES),
            conventional=conventional_ok and rng.random() < 0.2,
            totals_only=rng.random() < 0.3,
        )

    def _item(self, conventional_ok: bool) -> Item:
        if self.rng.random() < HOT_ITEM_SHARE:
            item = self.rng.choice(self.hot)
            if item.conventional and not conventional_ok:
                item = Item(item.model, item.size, False, item.totals_only)
            return item
        return self._fresh(conventional_ok)

    def call(self, hot_only: bool = False) -> Call:
        if hot_only:
            item = self.rng.choice(self.hot)
            return Call("/v1/schedule", json.dumps(item.wire()).encode(), (item,))
        path = self.rng.choices([p for p, _ in ENDPOINTS], [w for _, w in ENDPOINTS])[0]
        items = tuple(
            self._item(conventional_ok=path != "/v1/compare")
            for _ in range(ITEMS_PER_CALL[path])
        )
        if path == "/v1/schedule":
            body = items[0].wire()
        else:
            body = {"v": 1, "requests": [item.wire() for item in items]}
        return Call(path, json.dumps(body).encode(), items)

    def arrivals(
        self, rate: float, seconds: float, hot_only: bool = False
    ) -> list[tuple[float, Call]]:
        """Poisson arrival offsets (s) with their calls, pre-encoded."""
        out, offset = [], 0.0
        while True:
            offset += self.rng.expovariate(rate)
            if offset >= seconds:
                return out
            out.append((offset, self.call(hot_only)))


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #
@dataclass
class Record:
    call: Call
    due: float
    sent: float
    done: float
    status: int
    payload: bytes

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.due)


@dataclass
class Phase:
    name: str
    rate: float
    records: list[Record] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    seconds: float = 0.0

    def latencies(self) -> list[float]:
        return [r.latency_ms for r in self.records]

    def all_ok(self) -> bool:
        return all(r.status == 200 for r in self.records)

    def window_rate(self, window_s: float = 0.25) -> float:
        """Median completions per second over consecutive ``window_s`` windows."""
        ends = sorted(r.done for r in self.records)
        start = min(r.sent for r in self.records)
        counts = []
        while start + window_s <= ends[-1]:
            counts.append(bisect_left(ends, start + window_s) - bisect_left(ends, start))
            start += window_s
        return median(counts) / window_s if counts else len(ends) / self.seconds

    def backlog_grew(self) -> bool:
        """Whether requests waited longer for a connection as the phase went on."""
        waits = [r.sent - r.due for r in self.records]
        quarter = max(1, len(waits) // 4)
        first = sum(waits[:quarter]) / quarter
        last = sum(waits[-quarter:]) / quarter
        return last > first + 0.010


async def post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    """One POST on its own connection, as :class:`repro.serve.DaemonClient` does.

    (On a reused keep-alive connection the daemon's separate header and
    body writes meet delayed ACKs and each reply stalls for tens of ms.)
    """
    writer = None
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await reader.readexactly(length)
    except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
        return 0, b""
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _open_loop(port: int, phase: Phase, arrivals: list[tuple[float, Call]]) -> None:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    async def worker() -> None:
        while (job := await queue.get()) is not None:
            due, call = job
            sent = loop.time()
            status, payload = await post(port, call.path, call.body)
            phase.records.append(Record(call, due, sent, loop.time(), status, payload))

    tasks = [asyncio.create_task(worker()) for _ in range(CONNECTIONS)]
    start = loop.time() + 0.02
    for offset, call in arrivals:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lateness_ms.append(max(0.0, 1e3 * (loop.time() - due)))
        queue.put_nowait((due, call))
    for _ in tasks:
        queue.put_nowait(None)
    await asyncio.gather(*tasks)
    phase.seconds = loop.time() - start


async def _closed_loop(port: int, phase: Phase, traffic: Traffic, seconds: float) -> None:
    loop = asyncio.get_running_loop()
    end = loop.time() + seconds

    async def worker() -> None:
        while loop.time() < end:
            call = traffic.call()
            sent = loop.time()
            status, payload = await post(port, call.path, call.body)
            phase.records.append(Record(call, sent, sent, loop.time(), status, payload))

    started = loop.time()
    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    phase.seconds = loop.time() - started


def open_loop(port: int, name: str, rate: float, arrivals) -> Phase:
    phase = Phase(name, rate)
    asyncio.run(_open_loop(port, phase, arrivals))
    return phase


def closed_loop(port: int, name: str, traffic: Traffic, seconds: float) -> Phase:
    """:data:`CONNECTIONS` clients, each sending as soon as its last reply came."""
    phase = Phase(name, 0.0)
    asyncio.run(_closed_loop(port, phase, traffic, seconds))
    return phase


def goodput(rungs: list[Phase]) -> float:
    """Highest rate meeting the p99 limit with no failure and no growing backlog.

    Between the last rung that passes and the first that fails, the rate
    is interpolated linearly in p99, so the figure is not quantised to the
    ladder; below a failing first rung it scales that rung's rate.
    """
    last_rate, last_p99 = 0.0, 0.0
    for rung in rungs:
        p99 = percentile(rung.latencies(), 99)
        if not rung.all_ok() or rung.backlog_grew():
            return last_rate
        if p99 > P99_LIMIT_MS:
            share = (P99_LIMIT_MS - last_p99) / (p99 - last_p99)
            return last_rate + share * (rung.rate - last_rate)
        last_rate, last_p99 = rung.rate, p99
    return last_rate


# ---------------------------------------------------------------------- #
# The daemon child
# ---------------------------------------------------------------------- #
class Daemon:
    """``python -m repro serve --port 0`` in an empty cache home."""

    def __init__(self, work: WorkDir, tag: str, trace_out: Path | None = None) -> None:
        env = child_env(XDG_CACHE_HOME=str(work.fresh(f"xdg-{tag}")))
        env.pop("REPRO_CACHE_DIR", None)
        if trace_out is not None:
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        if CPUS is not None:
            env["PERFBENCH_CPUS"] = ",".join(str(cpu) for cpu in sorted(CPUS[1]))
        self.stderr = open(work.path / f"daemon-{tag}.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch_daemon.py"), "serve", "--port", "0"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.port = int(match.group(1))
        while True:
            try:
                with urllib.request.urlopen(self.url("/healthz"), timeout=5) as reply:
                    if reply.status == 200:
                        break
            except OSError:
                if time.perf_counter() - started > 60:
                    self.stop()
                    raise
                time.sleep(0.005)
        #: Seconds from process start until ``/healthz`` answered.
        self.setup_s = time.perf_counter() - started

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def prometheus(self) -> dict[str, list[tuple[dict, float]]]:
        request = urllib.request.Request(self.url("/metrics"), headers={"Accept": "text/plain"})
        with urllib.request.urlopen(request, timeout=10) as reply:
            return parse_prometheus(reply.read().decode("utf-8"))

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait for the process to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Samples by metric name from Prometheus text exposition."""
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            labels = dict(_LABEL.findall(match.group(2) or ""))
            samples.setdefault(match.group(1), []).append((labels, float(match.group(3))))
    return samples


def histogram_quantile(samples: dict, name: str, q: float) -> float:
    """Quantile of a Prometheus histogram, interpolated inside its bucket."""
    buckets: dict[float, float] = {}
    for labels, value in samples.get(f"{name}_bucket", []):
        edge = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
        buckets[edge] = buckets.get(edge, 0.0) + value
    edges = sorted(buckets)
    total = buckets[edges[-1]] if edges else 0.0
    if total == 0:
        return 0.0
    rank, lower, below = q * total, 0.0, 0.0
    for edge in edges:
        if buckets[edge] >= rank:
            if edge == float("inf"):
                return lower
            return lower + (edge - lower) * (rank - below) / max(buckets[edge] - below, 1e-12)
        lower, below = edge, buckets[edge]
    return lower


def sample_sum(samples: dict, name: str) -> float:
    return sum(value for _, value in samples.get(name, []))


# ---------------------------------------------------------------------- #
# Output check
# ---------------------------------------------------------------------- #
class Reference:
    """Expected wire figures from :class:`AnalyticalBackend`, memoised."""

    def __init__(self) -> None:
        self.backend = AnalyticalBackend()
        self._memo: dict[tuple, dict] = {}

    def expected(self, item: Item) -> dict:
        key = (item.model, item.size, item.conventional)
        if key not in self._memo:
            config = ArrayFlexConfig(rows=item.size, cols=item.size)
            schedule = (
                self.backend.schedule_model_conventional
                if item.conventional
                else self.backend.schedule_model
            )(item.model, config)
            self._memo[key] = {
                "time_ns": schedule.total_time_ns,
                "energy_nj": schedule.total_energy_nj,
                "total_cycles": schedule.total_cycles,
                "layers": len(schedule.layers),
                "depth_histogram": {
                    str(depth): count
                    for depth, count in sorted(schedule.depth_histogram().items())
                },
            }
        expected = self._memo[key]
        if item.totals_only:
            return {k: expected[k] for k in ("time_ns", "energy_nj")}
        return expected

    def check(self, record: Record) -> bool:
        """Whether a reply is a 200 whose every item matches the reference."""
        if record.status != 200:
            return False
        try:
            body = json.loads(record.payload)
            if record.call.path == "/v1/schedule":
                replies = [(record.call.items[0], body)]
            elif record.call.path == "/v1/batch":
                replies = list(zip(record.call.items, body["responses"], strict=True))
            else:
                replies = []
                for item, pair in zip(record.call.items, body["pairs"], strict=True):
                    replies.append((item, pair[0]))
                    replies.append((Item(item.model, item.size, True, item.totals_only), pair[1]))
            return all(self._matches(item, reply) for item, reply in replies)
        except (ValueError, KeyError, TypeError, IndexError):
            return False

    def _matches(self, item: Item, reply: dict) -> bool:
        if reply.get("status") != "ok" or reply.get("conventional") != item.conventional:
            return False
        result = reply["result"]
        return all(result.get(k) == v for k, v in self.expected(item).items())


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def _phase_line(phase: Phase) -> str:
    lat = phase.latencies()
    return (
        f"  {phase.name:>8} {phase.rate:6.1f} req/s offered, {len(lat) / phase.seconds:6.1f} done: "
        f"p50_ms.{phase.name} {percentile(lat, 50):7.2f}  p90 {percentile(lat, 90):7.2f}  "
        f"p99_ms.{phase.name} {percentile(lat, 99):7.2f}  (n={len(lat)}, backlog "
        f"{'grew' if phase.backlog_grew() else 'steady'})"
    )


def run(seed: int, seconds: float) -> dict:
    """Three cold daemon starts time set-up; each daemon then serves one part.

    The mix closed loop and the hot-set phase run on daemons of their own,
    so they start from the same near-empty state in every run rather than
    after however much the ladder left in the store.
    """
    _pin_generator()
    reference = Reference()
    low_rate = LADDER[0][1]
    setups, warmups = [], []
    with WorkDir("serve") as work:
        for part in ("mix", "hot", "ladder"):
            traffic = Traffic(seed, part)
            daemon = Daemon(work, part)
            setups.append(daemon.setup_s)
            try:
                if part == "mix":
                    warmups.append(open_loop(
                        daemon.port, "warmup", low_rate,
                        traffic.arrivals(low_rate, WARMUP_SHARE / 2 * seconds),
                    ))
                    mix = closed_loop(daemon.port, part, traffic, MIX_SHARE * seconds)
                elif part == "hot":
                    hot = open_loop(
                        daemon.port, part, low_rate,
                        traffic.arrivals(low_rate, HOT_PHASE_SHARE * seconds, hot_only=True),
                    )
                else:
                    warmups.append(open_loop(
                        daemon.port, "warmup", low_rate,
                        traffic.arrivals(low_rate, WARMUP_SHARE * seconds),
                    ))
                    rungs = [
                        open_loop(daemon.port, name, rate, traffic.arrivals(rate, share * seconds))
                        for name, rate, share in LADDER
                    ]
                    # Its request set is fixed by the seed; the closed loop's
                    # grows with host speed, and memory with it.
                    rss = daemon.peak_rss_mb()
            finally:
                daemon.stop()

    records = [r for phase in (*warmups, *rungs, mix, hot) for r in phase.records]
    failed = sum(not reference.check(r) for r in records)
    late_ms = max(percentile(p.lateness_ms, 99) for p in (*rungs, hot))
    rates = {"goodput_rps": goodput(rungs), "capacity_rps": mix.window_rate()}
    report = [
        f"serve_mixed seed={seed}: {len(records)} requests, {failed} failed or wrong; "
        "every reply compared bit for bit with AnalyticalBackend (the model is "
        "not validated against silicon, so no error figure is given)",
        f"  setup_s {median(setups):.3f} s (median of {', '.join(f'{s:.3f}' for s in setups)})",
        *(_phase_line(p) for p in (*rungs, hot)),
        *(f"  {name} {value:.1f} req/s" for name, value in rates.items()),
        f"  peak_rss_mb {rss:.1f} (VmHWM of the daemon that served the ladder)",
        f"  generator p99 lateness {late_ms:.2f} ms: "
        + ("valid" if late_ms <= LATE_LIMIT_MS else f"INVALID run (limit {LATE_LIMIT_MS:g} ms)"),
    ]
    return {
        "attempted": len(records),
        "failed": failed,
        "report": report,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (rates["capacity_rps"], "1/s"),
            "peak_rss_mb": (rss, "MB"),
        },
    }


def trace(seed: int, seconds: float) -> dict:
    """The ``low`` phase of :func:`run` against an untraced, then a traced daemon.

    Server-side percentiles and wire time come from the untraced daemon's
    ``/metrics`` (Prometheus text); self times come from the traced one,
    whose recorder writes its counts when it exits.  ``unattributed_ms``
    is the traced daemon's summed server time minus every layer's self
    time; ``tracing_overhead`` is the ratio of the two daemons' summed
    server time over the same requests.
    """
    _pin_generator()
    name, rate, share = LADDER[0]
    traffic = Traffic(seed, "ladder")
    traffic.arrivals(rate, WARMUP_SHARE * seconds)  # drawn as run() draws them
    arrivals = traffic.arrivals(rate, share * seconds)
    reference = Reference()
    with WorkDir("serve-trace") as work:
        plain = Daemon(work, "plain")
        try:
            plain_phase = open_loop(plain.port, name, rate, arrivals)
            plain_prom = plain.prometheus()
        finally:
            plain.stop()
        dump = work.path / "layers.json"
        traced = Daemon(work, "traced", trace_out=dump)
        try:
            traced_phase = open_loop(traced.port, name, rate, arrivals)
            traced_prom = traced.prometheus()
        finally:
            traced.stop()
        snap = json.loads(dump.read_text(encoding="utf-8"))
        store_bytes = dir_bytes(work.path / "xdg-traced")

    records = plain_phase.records + traced_phase.records
    failed = sum(not reference.check(r) for r in records)
    statuses = [r.status for r in records]
    server_p50 = histogram_quantile(plain_prom, "daemon_latency_ms", 0.5)
    round_trips = [1e3 * (r.done - r.sent) for r in plain_phase.records]
    plain_ms = sample_sum(plain_prom, "daemon_latency_ms_sum")
    traced_ms = sample_sum(traced_prom, "daemon_latency_ms_sum")
    metrics = layers.per_layer_metrics(
        snap,
        **{
            "serve.daemon.server_ms.p50": server_p50,
            "serve.daemon.server_ms.p99": histogram_quantile(plain_prom, "daemon_latency_ms", 0.99),
            "serve.daemon.wire_ms.p50": percentile(round_trips, 50) - server_p50,
            "serve.daemon.status_429": statuses.count(429),
            "serve.daemon.status_503": statuses.count(503),
            "serve.daemon.status_504": statuses.count(504),
            "serve.daemon.status_5xx": sum(
                s >= 500 and s not in (503, 504) for s in statuses
            ),
            "backends.store.bytes": store_bytes,
            "unattributed_ms": traced_ms - layers.attributed_ms(snap),
            "tracing_overhead": traced_ms / plain_ms,
        },
    )
    report = [
        f"serve_mixed seed={seed} traced: {len(records)} requests at {rate:g} req/s "
        f"(the {name} phase, twice), {failed} failed or wrong; summed server time "
        f"{traced_ms:.1f} ms traced, {plain_ms:.1f} ms untraced",
        *layers.report_lines(snap, metrics),
    ]
    return {"attempted": len(records), "failed": failed, "report": report, "metrics": metrics}
