"""Workload ``cycle_cold``: the measured (cycle) backend on a fresh service.

A new ``SchedulingService(backend="cycle")`` schedules all 8 registry
workloads at 32x32, 64x64 and 128x128 (406 layers per geometry, a dozen
distinct tile simulations), one ``submit`` at a time in a seeded order;
the same service then answers the whole set again warm.  Passes repeat
for ``--seconds``.  Almost all cold time is in
``backends.cycle_accurate`` and ``sim``.  Every layer's cycles, depth
and time are compared bit for bit with :class:`AnalyticalBackend`.
"""

from __future__ import annotations

import random
import time
from statistics import median

from repro.backends import AnalyticalBackend
from repro.core.config import ArrayFlexConfig
from repro.serve import Request, SchedulingService
from repro.workloads import list_workloads

import layers
from common import WorkDir, percentile, time_probe_setup, vmhwm_mb

GEOMETRIES = (32, 64, 128)
#: Warm re-answers of the whole set per cold pass (each takes ~5 ms).
WARM_REPEATS = 20


def pass_requests(seed: int) -> list[Request]:
    keys = [(name, size) for name in list_workloads() for size in GEOMETRIES]
    random.Random(seed).shuffle(keys)
    return [
        Request(model=name, config=ArrayFlexConfig(rows=size, cols=size))
        for name, size in keys
    ]


def _layer_view(schedule) -> list[tuple]:
    return [
        (layer.cycles, layer.collapse_depth, layer.execution_time_ns, layer.energy_nj)
        for layer in schedule.layers
    ]


def reference(requests: list[Request]) -> list[list[tuple]]:
    backend = AnalyticalBackend()
    return [_layer_view(backend.schedule_model(r.model, r.config)) for r in requests]


def _wrong(results, expected) -> int:
    """Layers whose figures differ from the reference (missing ones count too)."""
    wrong = 0
    for result, want in zip(results, expected):
        got = _layer_view(result)
        wrong += sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    return wrong


def one_pass(requests: list[Request], expected) -> dict:
    """A cold pass on a fresh service, then warm re-answers on the same one."""
    latencies, warm, results = [], [], []
    started = time.perf_counter()
    with SchedulingService(backend="cycle") as service:
        cold_started = time.perf_counter()
        for request in requests:
            sent = time.perf_counter()
            results.append(service.submit(request).unwrap())
            latencies.append(1e3 * (time.perf_counter() - sent))
        cold_s = time.perf_counter() - cold_started
        for _ in range(WARM_REPEATS):
            warm_started = time.perf_counter()
            repeat = [service.submit(request).unwrap() for request in requests]
            warm.append(time.perf_counter() - warm_started)
            results.extend(repeat)
    wall_s = time.perf_counter() - started
    return {
        "latencies": latencies,
        "wrong": _wrong(results, expected * (1 + WARM_REPEATS)),
        "checked": sum(len(want) for want in expected) * (1 + WARM_REPEATS),
        "layers": sum(len(want) for want in expected),
        "cold_s": cold_s,
        "warm_s": warm,
        "wall_s": wall_s,
    }


def _run_passes(requests, expected, seconds: float) -> dict:
    passes, measured = [], 0.0
    while not passes or measured < seconds:
        outcome = one_pass(requests, expected)
        passes.append(outcome)
        measured += outcome["wall_s"]
    return {
        "latencies": [ms for p in passes for ms in p["latencies"]],
        "wrong": sum(p["wrong"] for p in passes),
        "checked": sum(p["checked"] for p in passes),
        "layers": passes[0]["layers"],
        "cold_s": [p["cold_s"] for p in passes],
        "warm_s": [s for p in passes for s in p["warm_s"]],
    }


def run(seed: int, seconds: float) -> dict:
    requests = pass_requests(seed)
    expected = reference(requests)
    with WorkDir("cycle") as work:
        setups = time_probe_setup("cycle", work)
    # Process-level lazy set-up (first simulator and NumPy calls) is paid
    # once per process, not per service: keep it out of the timed passes.
    warmup = one_pass(requests, expected)
    outcome = _run_passes(requests, expected, seconds)
    rss = vmhwm_mb()
    lat = outcome["latencies"]
    rates = {
        "layers_per_s": outcome["layers"] / median(outcome["cold_s"]),
        "layers_per_s.warm": outcome["layers"] / median(outcome["warm_s"]),
    }
    report = [
        f"cycle_cold seed={seed}: {warmup['checked'] + outcome['checked']} layer results, "
        f"{warmup['wrong'] + outcome['wrong']} "
        "differing from AnalyticalBackend (the model is not validated against "
        "silicon, so no error figure is given)",
        f"  setup_s {median(setups):.3f} s (median of {', '.join(f'{s:.3f}' for s in setups)})",
        *(f"  {name} {value:.1f}" for name, value in rates.items()),
        f"  cold pass s: {', '.join(f'{s:.3f}' for s in outcome['cold_s'])}",
        f"  one submit, ms: p50 {percentile(lat, 50):.2f}  p99 {percentile(lat, 99):.2f} "
        f"(n={len(lat)}; bimodal: tile simulations or memo hits)",
        f"  peak_rss_mb {rss:.1f} (generator VmHWM)",
    ]
    return {
        "attempted": warmup["checked"] + outcome["checked"],
        "failed": warmup["wrong"] + outcome["wrong"],
        "report": report,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (rates["layers_per_s"], "1/s"),
            "peak_rss_mb": (rss, "MB"),
        },
    }


def trace(seed: int, seconds: float) -> dict:
    """A warm-up pass, one untraced pass, then the same pass with per-layer timing."""
    requests = pass_requests(seed)
    expected = reference(requests)
    warmup = one_pass(requests, expected)
    plain = one_pass(requests, expected)
    recorder = layers.install()
    recorder.reset()
    traced = one_pass(requests, expected)
    snap = recorder.snapshot()
    wall_ms = 1e3 * traced["wall_s"]
    metrics = layers.per_layer_metrics(
        snap,
        unattributed_ms=wall_ms - layers.attributed_ms(snap),
        tracing_overhead=traced["wall_s"] / plain["wall_s"],
    )
    report = [
        f"cycle_cold seed={seed} traced: {traced['checked']} layer results, "
        f"{warmup['wrong'] + plain['wrong'] + traced['wrong']} differing from "
        "AnalyticalBackend; "
        f"pass wall {wall_ms:.1f} ms traced, {1e3 * plain['wall_s']:.1f} ms untraced",
        *layers.report_lines(snap, metrics),
    ]
    return {
        "attempted": warmup["checked"] + plain["checked"] + traced["checked"],
        "failed": warmup["wrong"] + plain["wrong"] + traced["wrong"],
        "report": report,
        "metrics": metrics,
    }
