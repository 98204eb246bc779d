"""Every function the benchmark's per-layer trace wraps must exist.

`perfbench/tracing.py` names the functions it wraps, and `install()` raises
LookupError for a missing one, which makes every traced benchmark run fail.
Installing the trace here, in a child process because it patches the
modules, turns a rename or deletion in `src/` into a test failure.  The test
only reads `perfbench/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    code = "import tracing; tracing.install(tracing.Recorder()); print(len(tracing.TRACED))"
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 0
