"""Every function the benchmark's per-layer trace wraps must exist and run.

`perfbench/tracing.py` names the functions it wraps, and `install()` raises
LookupError for a missing one, which makes every traced benchmark run fail.
A traced function that no corpus job reaches any more (say, because its work
moved behind a cached property) makes the benchmark's trace coverage check
fail.  Installing the trace here, in a child process because it patches the
modules, turns either change in `src/` into a test failure.  The tests only
read `perfbench/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# runs every corpus job once under the trace and prints the job count and
# the traced names outside run.IDLE["corpus"] that recorded no call
CORPUS_COVERAGE = """
import io, json, sys
import run, tracing, workloads
from crystorb import cli
rec = tracing.Recorder()
tracing.install(rec)
jobs = workloads.build("corpus", run.BASIS_SEED)
for job in jobs:
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.text), io.StringIO(), io.StringIO()
    cli.main([job.command, "--input", "-", "--format", "json"])
sys.stdout = sys.__stdout__
idle = [n for n in tracing.TRACED if n not in run.IDLE["corpus"] and not rec.calls[n]]
print(json.dumps({"jobs": len(jobs), "idle": idle}))
"""


def _child(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_traced_names_resolve():
    code = "import tracing; tracing.install(tracing.Recorder()); print(len(tracing.TRACED))"
    assert int(_child(code)) > 0


def test_corpus_reaches_every_traced_layer():
    report = json.loads(_child(CORPUS_COVERAGE))
    assert report["jobs"] > 0
    assert report["idle"] == []
