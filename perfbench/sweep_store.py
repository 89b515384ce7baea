"""Workload ``sweep_store``: a store-backed design-space sweep.

``DesignSpaceExplorer(models, cache_dir=<empty dir>).explore(points)`` on
the default ``max_workers`` path (a process pool from 64 points up), over
a seeded sample of :data:`POINTS` design points: rows and cols in
16..512 (multiples of 8, so every depth menu is legal) x depth menus
{1,2}, {1,2,4}, {1,2,4,8}, {1,4}, scored on the 8 registry workloads at
batch 1 and batch 4.

Each cycle has two phases: ``cold`` computes on an empty store directory
and writes its shards; ``restart`` builds a fresh explorer on the same
directory and reads them back.  Cycles repeat for ``--seconds``.  No HTTP
and no simulator are involved.  Every result is compared bit for bit with
the same sweep scored by :class:`AnalyticalBackend`.
"""

from __future__ import annotations

import random
import time
from statistics import median

from repro.core.design_space import DesignPoint, DesignSpaceExplorer
from repro.workloads import list_workloads

import layers
from common import (
    WorkDir,
    dir_bytes,
    time_probe_setup,
    vmhwm_mb,
)

POINTS = 96
SIZES = tuple(range(16, 513, 8))
DEPTH_MENUS = ((1, 2), (1, 2, 4), (1, 2, 4, 8), (1, 4))


def sweep_models() -> list[str]:
    names = list_workloads()
    return [*names, *(f"{name}@bs4" for name in names)]


def sweep_points(seed: int) -> list[DesignPoint]:
    rng = random.Random(seed)
    return [
        DesignPoint(
            rows=rng.choice(SIZES),
            cols=rng.choice(SIZES),
            supported_depths=rng.choice(DEPTH_MENUS),
        )
        for _ in range(POINTS)
    ]


def reference(points: list[DesignPoint]) -> list:
    """The same sweep scored serially by the analytical backend."""
    explorer = DesignSpaceExplorer(sweep_models(), backend="analytical", max_workers=1)
    return explorer.explore(points)


def _timed_explore(store, points) -> tuple[float, list]:
    started = time.perf_counter()
    results = DesignSpaceExplorer(sweep_models(), cache_dir=store).explore(points)
    return time.perf_counter() - started, results


def _wrong(results, expected) -> int:
    """Design points whose result differs from the reference (missing ones count)."""
    return sum(got != want for got, want in zip(results, expected)) + abs(
        len(results) - len(expected)
    )


def _cycles(work: WorkDir, points, expected, seconds: float) -> dict:
    """Cold/restart cycles until ``seconds`` have been measured (at least one)."""
    cold, restart, wrong, checked = [], [], 0, 0
    measured = 0.0
    while not cold or measured < seconds:
        store = work.fresh("store")
        for phase in (cold, restart):
            elapsed, results = _timed_explore(store, points)
            phase.append(elapsed)
            measured += elapsed
            checked += len(expected)
            wrong += _wrong(results, expected)
    return {"cold": cold, "restart": restart, "wrong": wrong, "checked": checked}


def _report_head(seed: int, outcome: dict) -> str:
    return (
        f"sweep_store seed={seed}: {outcome['checked']} design-point results "
        f"({len(outcome['cold'])} cold + {len(outcome['restart'])} restart sweeps of "
        f"{POINTS} points), {outcome['wrong']} differing from AnalyticalBackend (the model is not "
        "validated against silicon, so no error figure is given)"
    )


def run(seed: int, seconds: float) -> dict:
    points = sweep_points(seed)
    expected = reference(points)
    with WorkDir("sweep") as work:
        setups = time_probe_setup("sweep", work)
        outcome = _cycles(work, points, expected, seconds)
    cold, restart = outcome["cold"], outcome["restart"]
    rss = vmhwm_mb()
    rates = {
        "points_per_s.cold": POINTS / median(cold),
        "points_per_s.restart": POINTS / median(restart),
    }
    report = [
        _report_head(seed, outcome),
        f"  setup_s {median(setups):.3f} s (median of {', '.join(f'{s:.3f}' for s in setups)})",
        *(f"  {name} {value:.1f}" for name, value in rates.items()),
        f"  cold sweep ms: {', '.join(f'{1e3 * s:.0f}' for s in cold)}",
        f"  restart sweep ms: {', '.join(f'{1e3 * s:.0f}' for s in restart)}",
        f"  peak_rss_mb {rss:.1f} (generator VmHWM; pool workers not included)",
    ]
    return {
        "attempted": outcome["checked"],
        "failed": outcome["wrong"],
        "report": report,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (rates["points_per_s.cold"], "1/s"),
            "peak_rss_mb": (rss, "MB"),
        },
    }


def trace(seed: int, seconds: float) -> dict:
    """One untraced cold+restart cycle, then the same cycle with per-layer timing.

    Layers inside the process-pool workers are summed over workers, so
    their self times may add up to more than the wall time; the
    unattributed row covers the generator process only.
    """
    points = sweep_points(seed)
    expected = reference(points)
    with WorkDir("sweep-trace") as work:
        plain = _cycles(work, points, expected, 0.0)
        recorder = layers.install()
        recorder.worker_dir = work.fresh("workers")
        recorder.reset()
        traced = _cycles(work, points, expected, 0.0)
        snap = recorder.snapshot()
        store_bytes = dir_bytes(work.path / "store")
        merged = layers.merge([snap, *layers.load_workers(recorder.worker_dir)])
    plain_s = plain["cold"][0] + plain["restart"][0]
    traced_s = traced["cold"][0] + traced["restart"][0]
    metrics = layers.per_layer_metrics(
        merged,
        **{
            "backends.store.bytes": store_bytes,
            "unattributed_ms": 1e3 * traced_s - layers.attributed_ms(snap),
            "tracing_overhead": traced_s / plain_s,
        },
    )
    report = [
        f"sweep_store seed={seed} traced: {plain['checked'] + traced['checked']} "
        f"design-point results, {plain['wrong'] + traced['wrong']} differing from "
        f"AnalyticalBackend; cold+restart wall {1e3 * traced_s:.0f} ms traced, "
        f"{1e3 * plain_s:.0f} ms untraced",
        *layers.report_lines(merged, metrics),
    ]
    return {
        "attempted": plain["checked"] + traced["checked"],
        "failed": plain["wrong"] + traced["wrong"],
        "report": report,
        "metrics": metrics,
    }
