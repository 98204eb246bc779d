"""crystorb benchmark: CLI jobs run cold, one at a time, from one client.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a crystorb checkout; the program is imported from
`src/`.  The parent process imports `crystorb.cli` once and never runs a job
itself.  Each job runs in a child forked from it, so every job starts with
the package imported and every module-level cache empty, as a CLI user gets
it.  The child times `crystorb.cli.main` on the job's JSON document (given
on stdin), converts the time into reference seconds (see CAL_REF_S), and
sends it, the exit code and the report back through a pipe; the parent
checks the verdicts and collects the child's peak RSS.

A run measures whole passes over the workload's job list, as many as fit in
--seconds and at least one.  `--seed` shuffles the job order of each pass.
The inputs come from `--basis-seed`, which picks the unimodular basis change
of every group; it is fixed by default because timings depend on the basis.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
each child wraps the functions listed in tracing.LAYERS and the last line
holds the per-layer counts and self times.  Earlier lines are a readable
summary.  The exit code is 0 when the run completed, whether or not every
verdict was correct; it is 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASIS_SEED = 1
SETUP_REPEATS = 7
DEADLINE_S = 170            # a run never lasts longer than this
COMMANDS = ("verify", "realize", "even", "jstruct", "action", "teich", "platonic")

# Times are reported in reference seconds.  A shared machine changes speed
# by 20-40% within seconds, so every measurement is scaled by the speed of
# the machine while it ran: a fixed calibration loop is timed right before
# and after it and, inside a job's process, every SAMPLE_EVERY_S while it
# runs.  A time t becomes t * CAL_REF_S / (mean calibration time); CAL_REF_S
# is the loop's time on a 2-core VM at its fastest observed.  Sampling from
# another process does not work: on two cores the two slow each other down.
# The program's own speed-ups change its time and not the calibration's, so
# they show in full.
CAL_REF_S = 0.0009
SAMPLE_EVERY_S = 0.05

IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import crystorb.cli; "
                "print(time.perf_counter() - t)")


def calibrate():
    """Time a fixed piece of pure-Python work: rationals, tuples, a dict,
    the kind of work crystorb does.  About 1 ms.  The collector is held off,
    so a collection of the job's heap is never charged to the loop."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(1, 251):
            x = Fraction(i, 7) + Fraction(3, i)
            table[i % 101] = (x * x).numerator % 13
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed(samples):
    """Wall -> reference factor from calibration times."""
    return CAL_REF_S / statistics.fmean(samples)


def measure_setup():
    """Median import time of crystorb.cli over fresh interpreters, in
    reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(3)]
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        after = [calibrate() for _ in range(3)]
        times.append(float(out.stdout) * speed(before + after))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the cold worker

def _child(job, traced, write_fd):
    """Runs in the forked child; never returns."""
    status = 3
    try:
        from crystorb import cli
        recorder = None
        if traced:
            recorder = tracing.Recorder()
            tracing.install(recorder)
        sys.stdin = io.StringIO(job.text)
        sys.stdout = out = io.StringIO()
        sys.stderr = err = io.StringIO()
        samples = [calibrate() for _ in range(3)]
        during = []
        signal.signal(signal.SIGALRM, lambda *_: during.append(calibrate()))
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            code = cli.main([job.command, "--input", "-", "--format", "json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        # the samples ran inside the job; their time is not the job's
        wall = time.perf_counter() - start - sum(during)
        samples += during + [calibrate() for _ in range(3)]
        message = {"code": code, "seconds": wall * speed(samples), "wall": wall,
                   "stdout": out.getvalue(),
                   "stderr": err.getvalue()[-2000:],
                   "trace": recorder.result() if recorder else None}
        data = json.dumps(message).encode()
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    except BaseException:   # the child must never return into the parent's loop
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def run_cold(job, traced, deadline):
    """Fork a child for `job`; returns (message or None, peak RSS in MB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(job, traced, write_fd)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([pipe], [], [], max(left, 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                chunks = None
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024
    if chunks is None or status != 0:
        return None, rss_mb
    return json.loads(b"".join(chunks)), rss_mb


# ---------------------------------------------------------------------------
# one run

class Tally:
    """Everything measured over the passes of a run."""

    def __init__(self):
        self.passes = 0
        self.attempted = 0
        self.failures = []          # failed jobs
        self.check_errors = []      # failed self-checks of the trace
        self.unsupported = 0
        self.peak_rss_mb = 0.0
        self.seconds = {}           # job label -> its time in each pass, reference s
        self.wall = {}              # job label -> its time in each pass, wall s
        self.commands = {}          # job label -> command
        self.ok_jobs = dict.fromkeys(COMMANDS, 0)
        self.calls = dict.fromkeys(tracing.TRACED, 0)
        self.self_s = dict.fromkeys(tracing.TRACED, 0.0)
        self.under = {}             # (parent, hot function) -> [calls, seconds]
        self.ok_calls = {}          # (command, function) -> calls in jobs that exit 0

    def record(self, job, message, rss_mb):
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if message is None:
            self.failures.append(f"{job.label}: timed out or crashed")
            return None
        code = message["code"]
        result = json.loads(message["stdout"])["result"] if code == 0 else None
        error, unsupported = workloads.check(job, code, result)
        self.unsupported += unsupported
        if error:
            self.failures.append(f"{job.label}: {error} {message['stderr'].strip()}")
        self.seconds.setdefault(job.label, []).append(message["seconds"])
        self.wall.setdefault(job.label, []).append(message["wall"])
        scale = message["seconds"] / message["wall"]
        self.commands[job.label] = job.command
        if code == 0:
            self.ok_jobs[job.command] += 1
        trace = message["trace"]
        if trace:
            for name, n in trace["calls"].items():
                self.calls[name] += n
                self.self_s[name] += trace["self_s"][name] * scale
                if code == 0:
                    key = (job.command, name)
                    self.ok_calls[key] = self.ok_calls.get(key, 0) + n
            for parent, name, n, s in trace["under"]:
                agg = self.under.setdefault((parent, name), [0, 0.0])
                agg[0] += n
                agg[1] += s * scale
        return message

    def job_times(self, wall=False):
        """Each job's median time over the passes."""
        return {label: statistics.median(ts)
                for label, ts in (self.wall if wall else self.seconds).items()}

    def command_s(self, wall=False):
        """Summed job time per command, for one pass."""
        out = dict.fromkeys(COMMANDS, 0.0)
        for label, t in self.job_times(wall).items():
            out[self.commands[label]] += t
        return out

    def jobs_per_s(self):
        times = self.job_times()
        return len(times) / sum(times.values())

    def calls_per_job(self, command, name):
        jobs = self.ok_jobs[command]
        return self.ok_calls.get((command, name), 0) / jobs if jobs else 0.0


def isolation_probe(basis_seed, deadline):
    """Run one `action` job twice; each must compute its own character
    table, or the module-level table cache leaked across jobs.  The probe
    has its own tally: its jobs are checked but belong to no pass."""
    probe = Tally()
    job = workloads.isolation_probe(basis_seed)
    for _ in range(2):
        message = probe.record(job, *run_cold(job, True, deadline))
        tables = message["trace"]["calls"]["groupcore.character_table"] if message else 0
        if tables != 1:
            probe.failures.append(f"isolation: {job.label} made {tables} "
                                  "character_table calls, expected 1")
    return probe


def run_passes(tally, jobs, seed, seconds, traced, deadline):
    """Whole passes in a seeded job order, as many as fit in `seconds`."""
    rng = random.Random(seed)
    start = time.monotonic()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        began = time.monotonic()
        for job in order:
            if tally.record(job, *run_cold(job, traced, deadline)) is None:
                return
        tally.passes += 1
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return


# ---------------------------------------------------------------------------
# metrics

# functions no input of the workload reaches; every other traced function
# must record calls, so a rename cannot silently zero a layer
IDLE = {
    "corpus": {"exactla.rank_rat",          # no caller in the program
               "hodge.omega_in_T"},         # no input carries omega
    "scaling": {"exactla.rank_rat", "hodge.omega_in_T",
                "crystal.normalize_action", "exactla.hnf",  # no lattice to enlarge
                "orbpi.coset_enumerate", "orbpi.central_line_quotient",
                "orbpi.orbifold_quotient"},
    "presentations": set(tracing.TRACED) - {"orbpi.coset_enumerate",
                                            "orbpi.central_line_quotient",
                                            "cli.JobSpec.run"},
}
# modules that must record no call at all
UNUSED = {"presentations": ("crystal.", "groupcore.", "hodge.", "quotient.")}


def end_to_end(tally, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (tally.jobs_per_s(), "1/s"),
        "job_s.p50": (statistics.median(tally.job_times().values()), "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }


def _per_pass(total, passes):
    """A count per pass: whole when every pass did the same work."""
    return total // passes if total % passes == 0 else total / passes


def per_layer(tally, workload):
    """Counts and self times per pass, so they do not depend on the number
    of passes; then the trace self-checks."""
    passes = tally.passes
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = (_per_pass(tally.calls[name], passes), "count")
        metrics[f"{name}.self_s"] = (tally.self_s[name] / passes, "s")
    tables = tally.calls["hodge.point_group_table"]
    reuse = 1 - tally.calls["groupcore.character_table"] / tables if tables else 0.0
    metrics["hodge.table_reuse"] = (reuse, "ratio")
    for cmd in ("even", "jstruct", "action", "teich"):
        metrics[f"hodge.is_even.calls_per_job.{cmd}"] = (
            tally.calls_per_job(cmd, "hodge.is_even"), "count")
    metrics["quotient.all_fixed_loci.calls_per_job.action"] = (
        tally.calls_per_job("action", "quotient.all_fixed_loci"), "count")
    metrics["groupcore.character_table.calls_per_job.action"] = (
        tally.calls_per_job("action", "groupcore.character_table"), "count")
    for cmd, seconds in tally.command_s().items():
        metrics[f"{cmd}_s"] = (seconds, "s")
    metrics["traced.jobs_per_s"] = (tally.jobs_per_s(), "1/s")

    for name in tracing.TRACED:
        if name not in IDLE[workload] and tally.calls[name] == 0:
            tally.check_errors.append(f"trace: {name} recorded no calls on {workload}")
        if name.startswith(UNUSED.get(workload, ())) and tally.calls[name]:
            tally.check_errors.append(f"trace: {name} ran on {workload}")
    return metrics


def summary_lines(tally, workload, traced):
    jobs = sum(len(ts) for ts in tally.seconds.values())
    lines = [f"workload {workload}: {tally.passes} pass(es) of {len(tally.seconds)} jobs, "
             f"{len(tally.failures)} failed of {tally.attempted} attempted "
             f"(failed_ratio {len(tally.failures) / tally.attempted:.4f}), "
             f"{tally.unsupported} answers reported unsupported"
             + (", traced" if traced else "")]
    counts = {cmd: list(tally.commands.values()).count(cmd) for cmd in COMMANDS}
    wall = tally.command_s(wall=True)
    for cmd, seconds in tally.command_s().items():
        if counts[cmd]:
            lines.append(f"  {cmd}_s {seconds:.4f} reference s, {wall[cmd]:.4f} wall s "
                         f"per pass ({counts[cmd]} jobs)")
    for (parent, name), (n, s) in sorted(tally.under.items()):
        lines.append(f"  {name} under {parent}: {_per_pass(n, tally.passes)} calls, "
                     f"{s / tally.passes:.4f} s per pass")
    times = list(tally.job_times().values())
    lines.append(f"  {jobs} timed jobs; over the {len(times)} jobs' median times: "
                 f"p50 {statistics.median(times):.4f} reference s")
    if len(times) >= 100:   # at least ten jobs lie beyond the 90th percentile
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        lines[-1] += f", p90 {p90:.4f} reference s"
    lines += [f"  FAILED {f}" for f in tally.failures + tally.check_errors]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--basis-seed", type=int, default=BASIS_SEED)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "crystorb" / "cli.py").is_file():
        sys.stderr.write(f"error: no crystorb sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = measure_setup()
    import crystorb.cli  # noqa: F401  -- workers fork from this imported state

    jobs = workloads.build(args.workload, args.basis_seed)
    probe = isolation_probe(args.basis_seed, deadline)
    tally = Tally()
    run_passes(tally, jobs, args.seed, args.seconds, bool(args.trace), deadline)
    if not tally.passes:
        sys.stderr.write("error: no pass completed\n" + "\n".join(tally.failures) + "\n")
        return 2

    metrics = per_layer(tally, args.workload) if args.trace else end_to_end(tally, setup_s)
    failures = probe.failures + tally.failures
    print("\n".join(summary_lines(tally, args.workload, bool(args.trace))
                    + [f"  FAILED {f}" for f in probe.failures]))
    print(json.dumps({
        "correct": not failures and not tally.check_errors,
        "attempted": probe.attempted + tally.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
