"""Start the scheduler daemon the way ``python -m repro ARGS...`` does.

    python perfbench/launch_daemon.py serve --port 0

``PERFBENCH_CPUS`` (comma-separated CPU numbers) pins the daemon there.
With ``PERFBENCH_TRACE_OUT`` set, the per-layer recorder of
:mod:`layers` is installed first and its counts are written to that file
when the daemon exits after its drain.  Traced and untraced runs start
the daemon through this same file.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys

from common import use_source_tree

if __name__ == "__main__":
    use_source_tree()
    cpus = os.environ.get("PERFBENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if trace_out:
        import layers

        atexit.register(layers.install().dump, trace_out)
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
