"""The shared perf-trajectory scenario, in exactly one place.

``test_bench_backends.py`` (the asserted benchmarks) and
``bench_report.py`` (the per-commit ``BENCH_<sha>.json`` artifact) must
measure the *same* workload, or the trajectory silently stops being
comparable; both import the design-point list and the timing harness
from here.

Speedup assertions are scaled by ``REPRO_BENCH_SPEEDUP_SCALE`` (default
1.0): CI sets it below 1 so a throttled shared runner cannot fail a push
on timing noise, while local runs keep the strict floors.
"""

from __future__ import annotations

import os
import time

from repro.core.design_space import DesignPoint

#: The design-space sweep scenario every backend benchmark pins down
#: (also the scenario of ``test_bench_design_space.py``).
DESIGN_POINTS = [
    DesignPoint(rows=128, cols=128, supported_depths=(1, 2)),
    DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4)),
    DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4, 8)),
    DesignPoint(rows=256, cols=256, supported_depths=(1, 2, 4)),
]

#: The transformer-suite serving scenario (``test_bench_transformers.py``
#: and the ``BENCH_<sha>.json`` artifact): the ``transformers`` registry
#: suite scheduled on the paper's two array geometries, cold and
#: store-warm.
TRANSFORMER_SUITE = "transformers"
TRANSFORMER_SIZES = (128, 256)


def cycle_calibration_cold():
    """A fresh cycle backend's first ResNet-34 schedule at 128x128.

    The cold cycle scenario (``test_bench_cycle_sim.py`` and the
    ``BENCH_<sha>.json`` artifact's ``cycle_calibration_cold_128x128``):
    the first use of the geometry steps three register-level probe tiles
    for each of the configuration's three modes, nine stepped tiles in
    all, before the mode search runs on the measured lines.  Returns
    ``(backend, config, schedule)``.
    """
    from repro.backends import CycleAccurateBackend
    from repro.core.config import ArrayFlexConfig

    backend = CycleAccurateBackend()
    config = ArrayFlexConfig.paper_128x128()
    return backend, config, backend.schedule_model("resnet34", config)


def eq3_lines(config):
    """The calibration table Eq. (3) predicts for ``config``'s modes.

    Eq. (3) per tile is ``R + R/k + C/k + T - 2``: the line
    ``(intercept, slope) = (R + R/k + C/k - 2, 1)`` in T.
    """
    rows, cols = config.rows, config.cols
    return {
        (rows, cols, k): (rows + rows // k + cols // k - 2, 1)
        for k in config.supported_depths
    }


def transformer_workloads():
    """Fresh workload objects of the transformer scenario (sorted by key)."""
    from repro.workloads import get_suite

    return get_suite(TRANSFORMER_SUITE)


def schedule_transformer_suite(backend):
    """Run the transformer scenario once on ``backend``; returns totals.

    Totals (not schedules) are what sweep-style consumers aggregate, and
    the pairs keep the workload order of :func:`transformer_workloads`.
    """
    from repro.core.config import ArrayFlexConfig

    totals = []
    for size in TRANSFORMER_SIZES:
        config = ArrayFlexConfig(rows=size, cols=size)
        for workload in transformer_workloads():
            totals.append(
                (
                    backend.schedule_model_totals(workload, config),
                    backend.schedule_model_totals(workload, config, conventional=True),
                )
            )
    return totals


def design_space_sweep(activity_model=None, backend=None):
    """Run the design-space scenario once under one activity model.

    The activity-aware counterpart of the scenario every backend
    benchmark pins down: same points, same workloads, with the per-layer
    power pass priced by ``activity_model`` (``None``/"constant" is the
    bit-identical historical path; "utilization" exercises the vectorised
    tiling-utilization computation).  Returns the point results.
    """
    from repro.core.design_space import DesignSpaceExplorer
    from repro.nn.models import model_zoo

    explorer = DesignSpaceExplorer(
        list(model_zoo().values()),
        backend=backend or "batched",
        activity_model=activity_model,
    )
    return explorer.explore(DESIGN_POINTS)


#: The ablation-sweep scenario (``test_bench_ablations.py`` and the
#: ``BENCH_<sha>.json`` artifact): one importance study — the default
#: three components (activity model, geometry, collapse-depth menu) on
#: the ``cnn`` registry suite — fanned out through one
#: ``SchedulingService.submit_many`` batch.  A small baseline geometry
#: keeps the scenario bench-sized while still paying the real engine
#: cost: run generation, service fan-out, ranking.
ABLATION_SUITE = "cnn"
ABLATION_SIZE = 64


def ablation_study():
    """A fresh study object of the ablation-sweep scenario."""
    from repro.eval.ablation import AblationStudy, Component

    return AblationStudy(
        components=[
            Component("activity_model", "constant", ("utilization",)),
            Component(
                "geometry",
                (ABLATION_SIZE, ABLATION_SIZE),
                ((2 * ABLATION_SIZE, 2 * ABLATION_SIZE),),
            ),
            Component("depths", (1, 2, 4), ((1, 2),)),
        ],
        fixed={"suite": ABLATION_SUITE},
    )


def run_ablation_sweep():
    """Run the ablation-sweep scenario once; returns the StudyResult."""
    return ablation_study().run()


#: The observability-overhead scenario (``test_bench_obs.py`` and the
#: ``BENCH_<sha>.json`` artifact): the design-space sweep under three
#: tracer regimes.  The *bypass* tracer's ``span()`` returns the shared
#: null span unconditionally — as close to "instrumentation compiled
#: out" as Python allows, so it stands in for the pre-instrumentation
#: baseline.  The real tracer *disabled* (the production default, one
#: attribute check per site) must stay within ``OBS_DISABLED_STRICT`` of
#: the bypass; *enabled* (every span allocated and recorded) within
#: ``OBS_ENABLED_STRICT`` of disabled.
OBS_DISABLED_STRICT = 1.05
OBS_ENABLED_STRICT = 1.15


def bypass_tracer():
    """A tracer whose ``span()`` skips even the enabled check."""
    from repro.obs.trace import _NULL, Tracer

    class _BypassTracer(Tracer):
        def span(self, name, trace_id=None, **attributes):
            return _NULL

    return _BypassTracer()


def sweep_under_tracer(tracer):
    """One design-space sweep with ``tracer`` installed as the global."""
    from repro.obs.trace import set_tracer

    previous = set_tracer(tracer)
    try:
        return design_space_sweep()
    finally:
        set_tracer(previous)


#: The store-warm-load scenario (``test_bench_store.py`` and the
#: ``BENCH_<sha>.json`` artifact): one >= 10k-decision shard, loaded warm
#: by a fresh process the way every pool worker of a sweep does.  The
#: baseline is the v1 JSON shard format (one payload object, string
#: keys, fully materialised list rows) parsed the way the v1 store did.
STORE_WARM_ROWS = 10_000
STORE_WARM_CONFIG_KEY = ("bench-store-warm", 128, 128)
STORE_WARM_PROBES = 64


def store_warm_rows(count: int = STORE_WARM_ROWS):
    """``count`` synthetic decision rows keyed by distinct (m, n, t).

    Full-width rows (every power column populated) so the scenario pays
    the real per-row cost.
    """
    rows = {}
    for i in range(count):
        key = (i + 1, (i % 97) + 1, (i % 89) + 1)
        rows[key] = [
            1 + i % 4,
            1_000 + i,
            1.7,
            58.8 + i,
            3.5,
            0.5,
            0.9,
            *[float(i % 7) + j * 0.125 for j in range(8)],
        ]
    return rows


def build_columnar_store(directory, count: int = STORE_WARM_ROWS):
    """Write the scenario's decisions as one columnar v2 shard."""
    from repro.backends.store import DecisionStore

    store = DecisionStore(directory)
    store.put_many(STORE_WARM_CONFIG_KEY, store_warm_rows(count))
    return store


def write_json_v1_shard(path, count: int = STORE_WARM_ROWS):
    """Write the same decisions in the v1 JSON shard format."""
    import json

    decisions = {
        ",".join(map(str, key)): row for key, row in store_warm_rows(count).items()
    }
    payload = {
        "version": "1.3",
        "config_key": list(STORE_WARM_CONFIG_KEY),
        "decisions": decisions,
    }
    path.write_text(json.dumps(payload))
    return path


def columnar_warm_load(directory):
    """One warm columnar load: fresh store handle, mmap + index build."""
    from repro.backends.store import DecisionStore

    return DecisionStore(directory).load(STORE_WARM_CONFIG_KEY)


def json_v1_warm_load(path):
    """One warm v1 load: parse the JSON payload into the row dict."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["decisions"]


def _vm_rss_kb() -> int:
    """Resident set size of this process in KiB (0 if unavailable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _trim_heap() -> None:
    """Release free malloc arenas back to the OS (glibc; no-op elsewhere).

    The RSS workers fork from whatever process pytest has become by the
    time this scenario runs; inherited free arenas would let the loads
    recycle already-resident pages and read as ~zero RSS growth.
    Trimming first restores the fresh-heap condition the comparison is
    about.
    """
    import ctypes

    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


#: How many simultaneous loads each RSS worker holds.  A single load can
#: hide inside allocator arenas the worker inherited over ``fork``;
#: holding several live at once forces real heap growth, and the
#: per-load average is what gets compared.
STORE_WARM_RSS_LOADS = 3


def rss_delta_columnar_worker(directory) -> float:
    """Pool worker: per-load RSS growth (KiB), columnar path + probes."""
    _trim_heap()
    before = _vm_rss_kb()
    views = [columnar_warm_load(directory) for _ in range(STORE_WARM_RSS_LOADS)]
    for view in views:
        probes = [view.get(key) for key in list(view.keys())[:STORE_WARM_PROBES]]
        assert len(probes) == STORE_WARM_PROBES and all(p is not None for p in probes)
    after = _vm_rss_kb()
    return (after - before) / STORE_WARM_RSS_LOADS


def rss_delta_json_worker(path) -> float:
    """Pool worker: per-load RSS growth (KiB), v1 JSON path + probes."""
    _trim_heap()
    before = _vm_rss_kb()
    tables = [json_v1_warm_load(path) for _ in range(STORE_WARM_RSS_LOADS)]
    for table in tables:
        probes = [table[key] for key in list(table)[:STORE_WARM_PROBES]]
        assert len(probes) == STORE_WARM_PROBES
    after = _vm_rss_kb()
    return (after - before) / STORE_WARM_RSS_LOADS


#: The daemon HTTP-overhead scenario (``test_bench_daemon.py`` and the
#: ``BENCH_<sha>.json`` artifact): ``DAEMON_BENCH_CALLS`` schedule calls
#: of distinct ``DAEMON_BENCH_LAYERS``-layer GEMM workloads, once as
#: direct ``SchedulingService.submit()`` library calls and once as
#: ``POST /v1/schedule`` round-trips against a daemon wrapping an
#: identical service.  The streamed dimension T encodes both the run and
#: the call index, so no timed call ever degenerates into a dedup hit:
#: the measured ratio is real scheduling work with vs without the HTTP
#: layer on top.
DAEMON_BENCH_CALLS = 8
DAEMON_BENCH_LAYERS = 384
DAEMON_BENCH_SIZE = 64
DAEMON_OVERHEAD_STRICT = 1.75


def daemon_bench_requests(run: int):
    """The ``run``-th batch of distinct schedule requests.

    Shapes are disjoint across calls *and* runs, so repeated best-of
    rounds keep paying the full scheduling cost on both paths.
    """
    from repro.core.config import ArrayFlexConfig
    from repro.nn.gemm_mapping import GemmShape
    from repro.serve import Request

    config = ArrayFlexConfig(rows=DAEMON_BENCH_SIZE, cols=DAEMON_BENCH_SIZE)
    requests = []
    for call in range(DAEMON_BENCH_CALLS):
        offset = (run * DAEMON_BENCH_CALLS + call) * DAEMON_BENCH_LAYERS
        gemms = tuple(
            GemmShape(
                m=64 + layer,
                n=64 + (layer % 9),
                t=784 + offset + layer,
                name=f"bench-r{run}-c{call}-l{layer}",
            )
            for layer in range(DAEMON_BENCH_LAYERS)
        )
        requests.append(
            Request(
                model=gemms,
                config=config,
                totals_only=True,
                model_name=f"daemon-bench-{run}-{call}",
            )
        )
    return requests


def run_direct_schedules(service, requests) -> None:
    """The library path: one blocking ``submit()`` per request."""
    for request in requests:
        assert service.submit(request).ok


def run_http_schedules(client, requests) -> None:
    """The HTTP path: one ``POST /v1/schedule`` round-trip per request."""
    for request in requests:
        assert client.schedule(request)["status"] == "ok"


def best_of(fn, rounds: int = 3) -> float:
    """Best-of-N wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def speedup_floor(strict: float) -> float:
    """An asserted speedup threshold, relaxed on noisy (CI) machines."""
    return strict * float(os.environ.get("REPRO_BENCH_SPEEDUP_SCALE", "1.0"))


def overhead_ceiling(strict: float) -> float:
    """An asserted slowdown-ratio cap (> 1.0), relaxed on noisy machines.

    The counterpart of :func:`speedup_floor` for overhead assertions:
    ``strict = 1.10`` means "at most 10% slower"; CI's
    ``REPRO_BENCH_SPEEDUP_SCALE < 1`` widens the margin the same way it
    lowers speedup floors.
    """
    scale = float(os.environ.get("REPRO_BENCH_SPEEDUP_SCALE", "1.0"))
    return 1.0 + (strict - 1.0) / scale
