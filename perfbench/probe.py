"""Set-up probe: a fresh process builds what a workload's user builds first.

    python perfbench/probe.py sweep|cycle CACHE_DIR

prints ``ready`` once the object exists; the caller times process start
to that line.
"""

from __future__ import annotations

import sys

from common import use_source_tree


def main(kind: str, cache_dir: str) -> int:
    use_source_tree()
    if kind == "sweep":
        from repro.core.design_space import DesignSpaceExplorer

        from sweep_store import sweep_models

        DesignSpaceExplorer(sweep_models(), cache_dir=cache_dir)
    elif kind == "cycle":
        from repro.serve import SchedulingService

        SchedulingService(backend="cycle").close()
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
