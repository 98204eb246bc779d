"""Every function the benchmark's per-layer trace wraps must exist and run.

`perfbench/tracing.py` names the functions it wraps, and `install()` raises
LookupError for a missing one, which makes every traced benchmark run fail.
A traced function that no corpus job reaches any more (say, because its work
moved behind a cached property) makes the benchmark's trace coverage check
fail; so does a `presentations` job that reaches no coset enumeration, or
reaches a group, Hodge or torus layer.  Installing the trace here, in a child process because it patches the
modules, turns either change in `src/` into a test failure.  The tests only
read `perfbench/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# runs every job of the workload named in argv[1] once under the trace and
# prints the job count, the traced names outside run.IDLE of that workload
# that recorded no call, the names run.UNUSED forbids there that recorded
# one, and every name's call count: the checks a traced harness run makes
COVERAGE = """
import io, json, sys
import run, tracing, workloads
from crystorb import cli
workload = sys.argv[1]
rec = tracing.Recorder()
tracing.install(rec)
jobs = workloads.build(workload, run.BASIS_SEED)
for job in jobs:
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.text), io.StringIO(), io.StringIO()
    cli.main([job.command, "--input", "-", "--format", "json"])
sys.stdout = sys.__stdout__
idle = [n for n in tracing.TRACED if n not in run.IDLE[workload] and not rec.calls[n]]
ran = [n for n in tracing.TRACED if n.startswith(run.UNUSED.get(workload, ())) and rec.calls[n]]
print(json.dumps({"jobs": len(jobs), "idle": idle, "ran": ran, "calls": rec.calls}))
"""


def _child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_traced_names_resolve():
    code = "import tracing; tracing.install(tracing.Recorder()); print(len(tracing.TRACED))"
    assert int(_child(code)) > 0


def test_corpus_reaches_every_traced_layer():
    report = json.loads(_child(COVERAGE, "corpus"))
    assert report["jobs"] > 0
    assert report["idle"] == []


def test_presentations_run_orbpi_alone():
    # the platonic jobs enumerate cosets and build von Dyck presentations,
    # and no group, Hodge or torus layer runs on them
    report = json.loads(_child(COVERAGE, "presentations"))
    assert report["jobs"] > 0
    assert report["calls"]["orbpi.coset_enumerate"] > 0
    assert report["calls"]["orbpi.central_line_quotient"] > 0
    assert report["idle"] == []
    assert report["ran"] == []
