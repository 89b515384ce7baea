"""The runtime dependency set: the standard library, ``repro`` and NumPy."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Prints the top-level modules that ``import repro`` and ``import
#: repro.cli`` load into a fresh interpreter.
PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro, repro.cli
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


def test_import_loads_no_third_party_module_but_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = set(json.loads(completed.stdout))
    assert {"repro", "numpy"} <= loaded
    # multiprocessing registers __main__ again as __mp_main__.
    stdlib = sys.stdlib_module_names | {"__mp_main__"}
    assert sorted(loaded - stdlib - {"repro", "numpy"}) == []
