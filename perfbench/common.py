"""Helpers shared by the benchmark workloads.

Paths of the checkout, the scratch directory every run writes into,
percentile summaries, peak-memory reads, set-up timing of fresh
processes, and the result line the command prints last.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (decision stores, daemon logs, trace dumps)
#: lives under this directory of the checkout and is removed at exit.
WORK_ROOT = ROOT / ".perfbench_work"

#: Fresh processes started to time set-up, per run; the median is reported.
SETUP_REPEATS = 3


def use_source_tree() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; "
            "run the benchmark from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict[str, str]:
    """Environment of a child process: the source tree and this directory importable."""
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra)
    return env


def split_cpus() -> tuple[set[int], set[int]] | None:
    """(load-generator CPUs, system-under-test CPUs), or None below two CPUs.

    A load generator sharing cores with the process it measures steals the
    time it is measuring; on a small machine it gets one core of its own.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[-1]}, set(cpus[:-1])


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = WORK_ROOT / f"{name}-{os.getpid()}"

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    def fresh(self, name: str) -> Path:
        """An empty subdirectory (replacing any earlier one of that name)."""
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def time_probe_setup(kind: str, work: WorkDir) -> list[float]:
    """Seconds from starting ``probe.py <kind>`` to its ``ready`` line.

    Each probe is a fresh interpreter that imports the package and builds
    the object a user of that workload builds first; set-up is timed
    :data:`SETUP_REPEATS` times.
    """
    timings = []
    for attempt in range(SETUP_REPEATS):
        cache = work.fresh(f"probe-{kind}-{attempt}")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), kind, str(cache)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {kind!r} failed (exit {code}, {line!r})")
        timings.append(elapsed)
    return timings


def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
    report: list[str],
) -> int:
    """Print the readable report, then the one-line JSON result; the exit code."""
    for line in report:
        print(line)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1
