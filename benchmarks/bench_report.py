"""Produce the per-commit benchmark artifact (``BENCH_<sha>.json``).

Runs the perf-trajectory scenarios of ``test_bench_backends.py`` with a
plain ``time.perf_counter`` harness (no pytest-benchmark dependency, so
the same script works in any CI job) and writes one JSON summary that the
CI ``bench`` job uploads as a workflow artifact — giving the repository a
timing record per commit.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py [--output BENCH_abc.json]

With no ``--output`` the file name is derived from ``$GITHUB_SHA`` or, in
a local checkout, from ``git rev-parse HEAD``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

# Make the script runnable without an installed package or PYTHONPATH, and
# make the shared scenario module importable from any working directory.
_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parent / "src", _HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench_scenarios import (  # noqa: E402
    DESIGN_POINTS,
    STORE_WARM_ROWS,
    best_of as _best_of,
    build_columnar_store,
    bypass_tracer,
    columnar_warm_load,
    cycle_calibration_cold,
    daemon_bench_requests,
    design_space_sweep,
    eq3_lines,
    json_v1_warm_load,
    run_ablation_sweep,
    run_direct_schedules,
    run_http_schedules,
    schedule_transformer_suite,
    sweep_under_tracer,
    write_json_v1_shard,
)

from repro import __version__  # noqa: E402
from repro.backends import (  # noqa: E402
    AnalyticalBackend,
    BatchedCachedBackend,
    CycleAccurateBackend,
    DecisionStore,
)
from repro.core.config import ArrayFlexConfig  # noqa: E402
from repro.core.design_space import DesignSpaceExplorer  # noqa: E402
from repro.nn.models import model_zoo, resnet34  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.serve import DaemonClient, SchedulerDaemon, SchedulingService  # noqa: E402


def _commit_sha() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def collect(rounds: int = 3) -> dict:
    """Time every tracked scenario and return the artifact payload."""
    models = list(model_zoo().values())
    resnet = resnet34()
    config_128 = ArrayFlexConfig.paper_128x128()
    config_16 = ArrayFlexConfig(rows=16, cols=16)

    timings_ms: dict[str, float] = {}

    analytical = AnalyticalBackend()
    timings_ms["schedule_resnet34_analytical"] = 1e3 * _best_of(
        lambda: analytical.schedule_model(resnet, config_128), rounds
    )
    batched = BatchedCachedBackend()
    timings_ms["schedule_resnet34_batched"] = 1e3 * _best_of(
        lambda: batched.schedule_model(resnet, config_128), rounds
    )
    cycle = CycleAccurateBackend()
    # Warm: calibrates every mode once; the timed rounds reuse the lines.
    cycle.schedule_model(resnet, config_16)
    timings_ms["schedule_resnet34_cycle_16x16"] = 1e3 * _best_of(
        lambda: cycle.schedule_model(resnet, config_16), rounds
    )
    # Cold: each round is a fresh backend that steps nine probe tiles (the
    # test_bench_cycle_sim.py scenario), so this records the stepping cost.
    cold_runs: list = []
    timings_ms["cycle_calibration_cold_128x128"] = 1e3 * _best_of(
        lambda: cold_runs.append(cycle_calibration_cold()), rounds
    )
    reference = analytical.schedule_model(resnet, config_128)
    for cold_backend, cold_config, cold_schedule in cold_runs:
        assert cold_backend._calibration == eq3_lines(cold_config), (
            "cold calibration must measure the Eq. (3) lines"
        )
        assert cold_schedule == reference, "cold cycle schedule must equal the analytical one"

    def cold_analytical():
        return DesignSpaceExplorer(models, backend=AnalyticalBackend()).explore(
            DESIGN_POINTS
        )

    timings_ms["design_space_analytical"] = 1e3 * _best_of(cold_analytical, rounds)

    batched_explorer = DesignSpaceExplorer(models, backend="batched")
    batched_explorer.explore(DESIGN_POINTS)
    timings_ms["design_space_batched"] = 1e3 * _best_of(
        lambda: batched_explorer.explore(DESIGN_POINTS), rounds
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        seed = BatchedCachedBackend(store=DecisionStore(cache_dir))
        DesignSpaceExplorer(models, backend=seed).explore(DESIGN_POINTS)

        def warm_rerun():
            backend = BatchedCachedBackend(store=DecisionStore(cache_dir))
            return DesignSpaceExplorer(models, backend=backend).explore(DESIGN_POINTS)

        assert warm_rerun() == cold_analytical(), "warm rerun must be bit-identical"
        timings_ms["design_space_warm_store_rerun"] = 1e3 * _best_of(warm_rerun, rounds)

    # Transformer-suite serving: cold batched vs store-warm rerun (the new
    # workload class riding the same trajectory as the design-space sweep).
    timings_ms["transformer_suite_cold_batched"] = 1e3 * _best_of(
        lambda: schedule_transformer_suite(BatchedCachedBackend()), rounds
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        schedule_transformer_suite(BatchedCachedBackend(store=DecisionStore(cache_dir)))

        def transformer_warm_rerun():
            return schedule_transformer_suite(
                BatchedCachedBackend(store=DecisionStore(cache_dir))
            )

        assert transformer_warm_rerun() == schedule_transformer_suite(
            AnalyticalBackend()
        ), "transformer warm rerun must be bit-identical"
        timings_ms["transformer_suite_warm_store_rerun"] = 1e3 * _best_of(
            transformer_warm_rerun, rounds
        )

    # Activity-aware sweep: the vectorised tiling-utilization power pass
    # must track the constant-activity batched sweep (<= 10% overhead —
    # asserted in test_bench_activity.py; recorded here per commit).
    from repro.core.activity import ConstantActivity, UtilizationActivity

    timings_ms["design_space_constant_activity"] = 1e3 * _best_of(
        lambda: design_space_sweep(activity_model=ConstantActivity()), rounds
    )
    timings_ms["design_space_utilization_activity"] = 1e3 * _best_of(
        lambda: design_space_sweep(activity_model=UtilizationActivity()), rounds
    )

    # Observability overhead: the same sweep under the bypass / disabled /
    # enabled tracer regimes (the test_bench_obs.py scenario).
    timings_ms["design_space_obs_bypass"] = 1e3 * _best_of(
        lambda: sweep_under_tracer(bypass_tracer()), rounds
    )
    timings_ms["design_space_obs_disabled"] = 1e3 * _best_of(
        lambda: sweep_under_tracer(Tracer(enabled=False)), rounds
    )
    timings_ms["design_space_obs_enabled"] = 1e3 * _best_of(
        lambda: sweep_under_tracer(Tracer(enabled=True)), rounds
    )

    # Ablation importance sweep: the default three-component study fanned
    # out through one SchedulingService.submit_many batch (the
    # test_bench_ablations.py ablation_sweep scenario).
    ablation_results: list = []
    timings_ms["ablation_sweep"] = 1e3 * _best_of(
        lambda: ablation_results.append(run_ablation_sweep()), rounds=min(rounds, 2)
    )
    assert ablation_results[0].ranking, "ablation sweep produced no ranking"
    assert all(run.ok for run in ablation_results[0].runs), "ablation run failed"

    # Store warm load: a fresh handle mmap-loading one >= 10k-decision
    # columnar shard vs parsing the same decisions from the v1 JSON
    # format (the test_bench_store.py scenario).
    with tempfile.TemporaryDirectory() as store_dir:
        store_root = Path(store_dir)
        columnar_dir = store_root / "columnar"
        columnar_dir.mkdir()
        build_columnar_store(columnar_dir)
        json_path = write_json_v1_shard(store_root / "decisions-v1.json")
        assert len(columnar_warm_load(columnar_dir)) == STORE_WARM_ROWS
        timings_ms["store_warm_load_columnar"] = 1e3 * _best_of(
            lambda: columnar_warm_load(columnar_dir), rounds
        )
        timings_ms["store_warm_load_json_v1"] = 1e3 * _best_of(
            lambda: json_v1_warm_load(json_path), rounds
        )

    # Daemon HTTP serving: POST /v1/schedule round-trips against a local
    # daemon vs the same calls as direct submit() library calls (the
    # test_bench_daemon.py scenario).  Every timed round draws fresh GEMM
    # shapes, so neither path degenerates into dedup-cache hits.
    import itertools

    daemon_runs = itertools.count()
    daemon = SchedulerDaemon(port=0)
    daemon.start()
    try:
        client = DaemonClient(*daemon.address)
        with SchedulingService() as direct_service:
            timings_ms["daemon_direct_schedule"] = 1e3 * _best_of(
                lambda: run_direct_schedules(
                    direct_service, daemon_bench_requests(next(daemon_runs))
                ),
                rounds,
            )
        timings_ms["daemon_http_schedule"] = 1e3 * _best_of(
            lambda: run_http_schedules(
                client, daemon_bench_requests(next(daemon_runs))
            ),
            rounds,
        )
    finally:
        assert daemon.drain(timeout=30.0), "daemon failed to drain"

    speedups = {
        "daemon_http_overhead": (
            timings_ms["daemon_http_schedule"] / timings_ms["daemon_direct_schedule"]
        ),
        "store_warm_vs_json_v1": (
            timings_ms["store_warm_load_json_v1"]
            / timings_ms["store_warm_load_columnar"]
        ),
        "utilization_activity_overhead": (
            timings_ms["design_space_utilization_activity"]
            / timings_ms["design_space_constant_activity"]
        ),
        "obs_disabled_overhead": (
            timings_ms["design_space_obs_disabled"]
            / timings_ms["design_space_obs_bypass"]
        ),
        "obs_tracing_overhead": (
            timings_ms["design_space_obs_enabled"]
            / timings_ms["design_space_obs_disabled"]
        ),
        "batched_vs_analytical": (
            timings_ms["design_space_analytical"] / timings_ms["design_space_batched"]
        ),
        "warm_rerun_vs_analytical": (
            timings_ms["design_space_analytical"]
            / timings_ms["design_space_warm_store_rerun"]
        ),
    }

    return {
        "schema": 1,
        "sha": _commit_sha(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": rounds,
        "timings_ms": {name: round(value, 4) for name, value in timings_ms.items()},
        "speedups": {name: round(value, 3) for name, value in speedups.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=None,
        help="output path (default: BENCH_<sha12>.json in the working directory)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="best-of rounds per scenario (default: 3)"
    )
    args = parser.parse_args(argv)

    payload = collect(rounds=args.rounds)
    output = Path(args.output or f"BENCH_{payload['sha'][:12]}.json")
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    for name, value in payload["timings_ms"].items():
        print(f"  {name:36s} {value:10.3f} ms")
    for name, value in payload["speedups"].items():
        print(f"  {name:36s} {value:9.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
