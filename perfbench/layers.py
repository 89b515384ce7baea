"""Per-layer timing from outside the program.

:func:`install` wraps public functions of each layer of ``repro`` (the
same function objects wherever a module imported them by name) with a
recorder that keeps, per layer, call counts and *self* time: a call's
duration minus the part of it spent in wrapped calls it made on the same
thread.  A ``serve.service.submit`` call's self time also leaves out the
part of it during which a service pool thread was running wrapped work:
it is bookkeeping plus waiting with nothing computing, and the self times
of one process add up to its attributed wall time.  A layer whose module
or function no longer exists is recorded as absent and skipped.

Process-pool workers forked after :func:`install` keep their own counts
and write them to ``worker_dir`` when they exit; :func:`load_workers`
merges them.
"""

from __future__ import annotations

import importlib
import json
from bisect import bisect_right
import os
import sys
import threading
import time
from collections import defaultdict
from functools import wraps
from multiprocessing import util
from pathlib import Path

#: Thread-name prefix of the scheduling service's thread pool.
SERVICE_POOL_PREFIX = "repro-serve"

#: Service call that blocks on pool work (pool time is subtracted from it).
SUBMIT_LAYER = "serve.service.submit"


def _count_tiles(rec: "Recorder", args, kwargs, result) -> None:
    rec.add("sim.tiles", len(result))
    rec.add("sim.simulated_cycles", sum(int(r.total_cycles) for r in result))


def _snapshot_cache(rec: "Recorder", args, kwargs, result) -> None:
    backend = args[0]
    info = getattr(backend, "cache_info", None)
    if info is not None:
        rec.caches[id(backend)] = info()


def _service_opened(rec: "Recorder", args, kwargs, result) -> None:
    service = args[0]
    if getattr(service, "executor_kind", None) == "process":
        rec.pools[id(service)] = time.perf_counter()


def _service_closed(rec: "Recorder", args, kwargs, result) -> None:
    service = args[0]
    counters = {
        name: sum(instrument.value for instrument in service.registry.family(name))
        for name in (
            "service_requests_total",
            "service_submitted_total",
            "service_deduplicated_total",
        )
    }
    rec.services[id(service)] = counters  # close() is idempotent; so is this
    opened = rec.pools.pop(id(service), None)
    if opened is not None:
        rec.add("serve.service.pool_wall_s", time.perf_counter() - opened)
        rec.add("serve.service.pool_tasks", counters["service_submitted_total"])


#: (layer, module, attribute path, hook run on each successful return).
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("serve.protocol.decode", "repro.serve.protocol", "request_from_wire", None),
    ("serve.protocol.encode", "repro.serve.protocol", "response_to_wire", None),
    (SUBMIT_LAYER, "repro.serve.service", "SchedulingService.submit_many", None),
    ("serve.service.lifecycle", "repro.serve.service", "SchedulingService.__init__", _service_opened),
    ("serve.service.lifecycle", "repro.serve.service", "SchedulingService.close", _service_closed),
    ("backends.batched", "repro.backends.batched", "BatchedCachedBackend.schedule_model", _snapshot_cache),
    (
        "backends.batched",
        "repro.backends.batched",
        "BatchedCachedBackend.schedule_model_conventional",
        _snapshot_cache,
    ),
    (
        "backends.batched",
        "repro.backends.batched",
        "BatchedCachedBackend.schedule_model_totals",
        _snapshot_cache,
    ),
    ("backends.base", "repro.backends.base", "ExecutionBackend.schedule_model", None),
    ("backends.base", "repro.backends.base", "ExecutionBackend.schedule_model_conventional", None),
    ("backends.store.write", "repro.backends.store", "DecisionStore.put_many", None),
    ("backends.store.write", "repro.backends.store", "DecisionStore.flush", None),
    ("backends.store.load", "repro.backends.store", "DecisionStore.load", None),
    ("backends.cycle_accurate.schedule", "repro.backends.cycle_accurate", "CycleAccurateBackend.schedule_layer", None),
    (
        "backends.cycle_accurate.measure",
        "repro.backends.cycle_accurate",
        "CycleAccurateBackend.measure_tile_cycles",
        None,
    ),
    ("sim.simulate_tiles", "repro.sim.systolic_sim", "CycleAccurateSystolicArray.simulate_tiles", _count_tiles),
    ("nn.operand_gen", "repro.nn.workloads", "random_int_matrices", None),
    ("core.optimizer", "repro.core.optimizer", "PipelineOptimizer.best_depth", None),
    ("core.optimizer", "repro.core.optimizer", "PipelineOptimizer.decide_model", None),
    ("core.energy", "repro.core.energy", "EnergyModel.arrayflex_layer_power", None),
    ("core.energy", "repro.core.energy", "EnergyModel.conventional_layer_power", None),
    ("workloads.resolve", "repro.core.metrics", "resolve_workload", None),
    ("workloads.resolve", "repro.workloads.registry", "get_workload", None),
)


class Recorder:
    """Per-layer self time, call counts and event counts of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.absent: list[str] = []
        self.worker_dir: Path | None = None
        self.reset()
        # Runs in multiprocessing children after their own fork clean-up
        # (which drops finalizers inherited from, or registered during, fork).
        util.register_after_fork(self, Recorder._after_fork)

    def reset(self) -> None:
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: (start, end) of outermost wrapped calls on service pool threads,
        #: and (start, end, self seconds) of each submit call (module doc).
        self.pool_spans: list[tuple[float, float]] = []
        self.submit_spans: list[tuple[float, float, float]] = []
        #: Self time recorded on service pool threads (already covered by
        #: the submit calls waiting for it, when counting wall time).
        self.pool_self_s = 0.0
        self.caches: dict[int, dict] = {}
        self.services: dict[int, dict] = {}
        self.pools: dict[int, float] = {}

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, fn, hook=None):
        @wraps(fn)
        def timed(*args, **kwargs):
            local = self._local  # replaced by reset(), so read per call
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                duration = ended - started
                stack.pop()
                on_pool = threading.current_thread().name.startswith(SERVICE_POOL_PREFIX)
                with self._lock:
                    if stack:
                        stack[-1][0] += duration
                    elif on_pool:
                        self.pool_spans.append((started, ended))
                    if on_pool:
                        self.pool_self_s += duration - frame[0]
                    if layer == SUBMIT_LAYER:
                        self.submit_spans.append((started, ended, duration - frame[0]))
                    else:
                        self.self_s[layer] += duration - frame[0]
                    self.calls[layer] += 1
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a count the program no longer exposes stays zero
            return result

        return timed

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Counts so far, with pool time moved out of the waiting submit calls."""
        with self._lock:
            self_s = dict(self.self_s)
            if self.submit_spans:
                busy = _union(self.pool_spans)
                self_s[SUBMIT_LAYER] = sum(
                    max(0.0, own - _overlap(busy, start, end))
                    for start, end, own in self.submit_spans
                )
            return {
                "self_s": self_s,
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "caches": list(self.caches.values()),
                "services": list(self.services.values()),
                "pool_self_s": self.pool_self_s,
                "submit_wall_s": sum(own for _, _, own in self.submit_spans),
                "absent": list(self.absent),
            }

    def dump(self, path: str | os.PathLike[str]) -> None:
        Path(path).write_text(json.dumps(self.snapshot()), encoding="utf-8")

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self.reset()
        if self.worker_dir is not None:
            path = self.worker_dir / f"worker-{os.getpid()}.json"
            util.Finalize(None, self.dump, args=(path,), exitpriority=100)


def _union(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint intervals covering ``spans``."""
    merged: list[list[float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _overlap(disjoint: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by sorted disjoint intervals."""
    first = bisect_right(disjoint, (start, float("inf"))) - 1
    covered = 0.0
    for lo, hi in disjoint[max(first, 0):]:
        if lo >= end:
            break
        covered += max(0.0, min(hi, end) - max(lo, start))
    return covered


def _resolve(module_name: str, path: str):
    """(owner, attribute name, function) or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


#: Modules loaded before wrapping, so every by-name import of a wrapped
#: function is already bound and gets replaced too.
PRELOAD = (
    "repro.cli",
    "repro.serve",
    "repro.backends",
    "repro.core.design_space",
    "repro.sim",
    "repro.workloads",
)


def install() -> Recorder:
    """Wrap every target that exists; returns the process's recorder."""
    for module_name in PRELOAD:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # a removed module shows up as absent layers below
    recorder = Recorder()
    for layer, module_name, path, hook in TARGETS:
        found = _resolve(module_name, path)
        if found is None:
            recorder.absent.append(f"{layer}:{module_name}.{path}")
            continue
        owner, name, fn = found
        timed = recorder.wrap(layer, fn, hook)
        if isinstance(owner, type):
            setattr(owner, name, timed)
            continue
        # A module function is also bound by name wherever it was imported.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and getattr(
                module, name, None
            ) is fn:
                setattr(module, name, timed)
    return recorder


def load_workers(worker_dir: Path) -> list[dict]:
    """The snapshots forked workers wrote on exit."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(worker_dir.glob("worker-*.json"))
    ]


def merge(snapshots: list[dict]) -> dict:
    """Sum several processes' snapshots into one."""
    merged: dict = {"self_s": defaultdict(float), "calls": defaultdict(int),
                    "counts": defaultdict(float), "caches": [], "services": [], "absent": []}
    for snap in snapshots:
        for key in ("self_s", "calls", "counts"):
            for name, value in snap[key].items():
                merged[key][name] += value
        merged["caches"].extend(snap["caches"])
        merged["services"].extend(snap["services"])
        merged["absent"] = sorted(set(merged["absent"]) | set(snap["absent"]))
    return merged


# ---------------------------------------------------------------------- #
# The per-layer metrics
# ---------------------------------------------------------------------- #
#: name -> (unit, better, end-to-end metric it should move, on which workload).
#: End-to-end names are those the report lines print.  The result line
#: carries only the ones steady enough to bound, under workload-neutral
#: names: setup_s, peak_rss_mb, ok_ratio (1 - failed_ratio) and
#: throughput_per_s, which is capacity_rps / points_per_s.cold /
#: layers_per_s on serve_mixed / sweep_store / cycle_cold.
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "serve.daemon.server_ms.p50": ("ms", "lower", "p50_ms.low", "serve_mixed"),
    "serve.daemon.server_ms.p99": ("ms", "lower", "p99_ms.high", "serve_mixed"),
    "serve.daemon.wire_ms.p50": ("ms", "lower", "p50_ms.low", "serve_mixed"),
    "serve.daemon.status_429": ("count", "lower", "failed_ratio, goodput_rps", "serve_mixed"),
    "serve.daemon.status_503": ("count", "lower", "failed_ratio, goodput_rps", "serve_mixed"),
    "serve.daemon.status_504": ("count", "lower", "failed_ratio, goodput_rps", "serve_mixed"),
    "serve.daemon.status_5xx": ("count", "lower", "failed_ratio, goodput_rps", "serve_mixed"),
    "serve.protocol.decode_self_ms": ("ms", "lower", "p50_ms.low", "serve_mixed"),
    "serve.protocol.encode_self_ms": ("ms", "lower", "p50_ms.low", "serve_mixed"),
    "serve.service.submit_self_ms": ("ms", "lower", "p99_ms.high, goodput_rps", "serve_mixed"),
    "serve.service.dedup_ratio": ("ratio", "higher", "p99_ms.high, goodput_rps", "serve_mixed"),
    "serve.service.pool_wall_s": ("s", "lower", "points_per_s.cold", "sweep_store"),
    "serve.service.pool_tasks": ("count", "lower", "points_per_s.cold", "sweep_store"),
    "backends.batched.self_ms": (
        "ms", "lower", "p50_ms.* / points_per_s.*", "serve_mixed, sweep_store"),
    "backends.batched.calls": (
        "count", "lower", "p50_ms.* / points_per_s.*", "serve_mixed, sweep_store"),
    "backends.batched.lru_hit_ratio": (
        "ratio", "higher", "p50_ms.* / points_per_s.*", "serve_mixed, sweep_store"),
    "backends.store.write_self_ms": (
        "ms", "lower", "points_per_s.cold / goodput_rps", "sweep_store, serve_mixed"),
    "backends.store.load_self_ms": ("ms", "lower", "points_per_s.restart", "sweep_store"),
    "backends.store.hit_ratio": ("ratio", "higher", "points_per_s.restart", "sweep_store"),
    "backends.store.bytes": ("bytes", "lower", "points_per_s.*, goodput_rps", "sweep_store, serve_mixed"),
    "backends.cycle_accurate.measure_self_ms": ("ms", "lower", "layers_per_s", "cycle_cold"),
    "backends.cycle_accurate.measure_calls": ("count", "lower", "layers_per_s", "cycle_cold"),
    "backends.cycle_accurate.memo_hits": ("count", "higher", "layers_per_s", "cycle_cold"),
    "sim.simulate_tiles_self_ms": ("ms", "lower", "layers_per_s", "cycle_cold"),
    "sim.tiles": ("count", "lower", "layers_per_s", "cycle_cold"),
    "sim.simulated_cycles": ("count", "lower", "layers_per_s", "cycle_cold"),
    "nn.operand_gen_ms": ("ms", "lower", "layers_per_s", "cycle_cold"),
    "core.optimizer_ms": ("ms", "lower", "layers_per_s", "cycle_cold"),
    "core.energy_ms": ("ms", "lower", "layers_per_s", "cycle_cold"),
    "workloads.resolve_ms": ("ms", "lower", "setup_s, p50_ms.low", "all"),
    "unattributed_ms": ("ms", "lower", "every metric of the workload", "each"),
    "tracing_overhead": ("ratio", "lower", "none (traced wall / untraced wall)", "each"),
    "layers_absent": ("count", "lower", "none (wrapped functions no longer found)", "each"),
}

#: Self-time metrics and the recorder layers they sum.
_SELF_MS = {
    "serve.protocol.decode_self_ms": ("serve.protocol.decode",),
    "serve.protocol.encode_self_ms": ("serve.protocol.encode",),
    "serve.service.submit_self_ms": (SUBMIT_LAYER,),
    "backends.batched.self_ms": ("backends.batched",),
    "backends.store.write_self_ms": ("backends.store.write",),
    "backends.store.load_self_ms": ("backends.store.load",),
    "backends.cycle_accurate.measure_self_ms": ("backends.cycle_accurate.measure",),
    "sim.simulate_tiles_self_ms": ("sim.simulate_tiles",),
    "nn.operand_gen_ms": ("nn.operand_gen",),
    "core.optimizer_ms": ("core.optimizer",),
    "core.energy_ms": ("core.energy",),
    "workloads.resolve_ms": ("workloads.resolve",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def attributed_ms(snap: dict) -> float:
    """Wall time one process spent in wrapped calls, from its snapshot.

    Pool-thread self time is left out and each submit call counts whole
    (minus its wrapped children), so work fanned out over several pool
    threads at once is not counted twice.
    """
    self_s = snap["self_s"]
    return 1e3 * (
        sum(self_s.values())
        - snap["pool_self_s"]
        - self_s.get(SUBMIT_LAYER, 0.0)
        + snap["submit_wall_s"]
    )


def per_layer_metrics(snap: dict, **measured: float) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric: from ``snap``, else ``measured``, else 0."""
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    hits = sum(c.get("hits", 0) for c in snap["caches"])
    misses = sum(c.get("misses", 0) for c in snap["caches"])
    store_hits = sum(c.get("store_hits", 0) for c in snap["caches"])
    requests = sum(s["service_requests_total"] for s in snap["services"])
    deduplicated = sum(s["service_deduplicated_total"] for s in snap["services"])
    measure_calls = calls.get("backends.cycle_accurate.measure", 0)
    values = {
        name: 1e3 * sum(self_s.get(layer, 0.0) for layer in layers)
        for name, layers in _SELF_MS.items()
    }
    values.update({
        "serve.service.dedup_ratio": _ratio(deduplicated, requests),
        "serve.service.pool_wall_s": counts.get("serve.service.pool_wall_s", 0.0),
        "serve.service.pool_tasks": counts.get("serve.service.pool_tasks", 0.0),
        "backends.batched.calls": calls.get("backends.batched", 0),
        "backends.batched.lru_hit_ratio": _ratio(hits, hits + misses + store_hits),
        "backends.store.hit_ratio": _ratio(store_hits, store_hits + misses),
        "backends.cycle_accurate.measure_calls": measure_calls,
        "backends.cycle_accurate.memo_hits": max(
            0, measure_calls - calls.get("sim.simulate_tiles", 0)
        ),
        "sim.tiles": counts.get("sim.tiles", 0.0),
        "sim.simulated_cycles": counts.get("sim.simulated_cycles", 0.0),
        "layers_absent": len(snap["absent"]),
    })
    values.update(measured)
    return {name: (float(values.get(name, 0.0)), unit) for name, (unit, *_) in PER_LAYER.items()}


def report_lines(snap: dict, metrics: dict[str, tuple[float, str]]) -> list[str]:
    """Readable per-layer table, every recorded layer included."""
    lines = ["  per-layer self time (ms) and calls:"]
    for layer in sorted(snap["self_s"]):
        lines.append(
            f"    {layer:<36} {1e3 * snap['self_s'][layer]:10.2f} ms "
            f"{snap['calls'].get(layer, 0):8d} calls"
        )
    lines.append("  per-layer metrics:")
    for name, (value, unit) in metrics.items():
        _, _, moves, workload = PER_LAYER[name]
        lines.append(f"    {name:<40} {value:14.4f} {unit:<6} -> {moves} [{workload}]")
    for absent in snap["absent"]:
        lines.append(f"  absent layer (function not found): {absent}")
    return lines
