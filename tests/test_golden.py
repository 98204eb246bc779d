"""Golden files: byte-identical CLI output for every corpus entry and command.

tests/golden/<entry>.<command>.json holds the canonical JSON report of a
successful run, <entry>.<command>.err the error message of a failed one, and
exit_codes.json the exit code of every run.  One more pass runs every case
in a `python -O` child, so the output cannot depend on an assert statement.
tests/golden/scaling/<member>.action.json pins `action` on the five even
members of the benchmark's scaling family at basis seed 1, seeded together
as the benchmark seeds them.  After an intended change of output, rewrite
them all with

    PYTHONPATH=src:perfbench python tests/test_golden.py
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import family
import pytest
from conftest import family_documents

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("verify", "realize", "even", "jstruct", "action", "teich")


def run_cli(name, command):
    """(exit code, stdout, stderr) of one JSON-format CLI run on stdin."""
    return run_document(load_corpus(name), command)


def run_document(doc, command, output_format="json"):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, "--input", "-", "--format", output_format])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def golden_path(case, code):
    return GOLDEN / (f"{case}.json" if code == 0 else f"{case}.err")


def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_covers_corpus():
    assert sorted(exit_codes()) == sorted(
        f"{name}.{command}" for name in corpus_names() for command in COMMANDS)


@pytest.mark.parametrize("case", sorted(exit_codes()))
def test_output_matches_golden(case):
    name, command = case.rsplit(".", 1)
    code, out, err = run_cli(name, command)
    expected = exit_codes()[case]
    assert code == expected
    assert (out if code == 0 else err) == golden_path(case, code).read_text()


# every corpus and scaling case under `python -O`, with mpmath unimportable
OPTIMIZED_PASS = """
import json
import sys

sys.modules["mpmath"] = None
sys.path.insert(0, sys.argv[1])
import test_golden

mismatched = []
codes = test_golden.exit_codes()
for case, expected in sorted(codes.items()):
    code, out, err = test_golden.run_cli(*case.rsplit(".", 1))
    text = out if code == 0 else err
    golden = test_golden.golden_path(case, code)
    if code != expected or not golden.exists() or text != golden.read_text():
        mismatched.append(case)
docs = test_golden.scaling_documents()
for name in test_golden.SCALING_ACTION:
    code, out, _ = test_golden.run_document(docs[name], "action")
    if code != 0 or out != test_golden.scaling_golden(name).read_text():
        mismatched.append(f"scaling/{name}.action")
print(json.dumps({"optimize": sys.flags.optimize,
                  "cases": len(codes) + len(test_golden.SCALING_ACTION),
                  "mismatched": mismatched}))
"""


def test_golden_matches_under_optimize():
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        (str(root / "src"), str(root / "perfbench"), env.get("PYTHONPATH", "")))
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_PASS, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "optimize": 1, "cases": len(exit_codes()) + len(SCALING_ACTION),
        "mismatched": []}


def b4_doubled():
    """B4 on Z^4 + Z^4, the three b4_rank4 generators as block(g, g): |G| =
    384 at rank 8, where the fixed-locus geometry is large."""
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    cycle = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    sign = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return {"rank": 8, "generators": [
        {"linear": [row + [0] * 4 for row in g] + [[0] * 4 + row for row in g]}
        for g in (swap, cycle, sign)]}


@pytest.mark.parametrize("command", ["verify", "action"])
def test_b4_doubled_matches_golden(command):
    # pinned from the output before fixed sets were solved per conjugacy
    # class, when `action` took about a minute
    code, out, _ = run_document(b4_doubled(), command)
    assert code == 0
    assert out == (GOLDEN / f"b4double_rank8.{command}.json").read_text()


# the scaling members `action` accepts; b4_rank4 and s5_rank6 are not even
SCALING_ACTION = ("b3diag_rank6", "c3wr_rank6", "c6c6_rank4", "c6wr_rank4",
                  "s4double_rank8")


def scaling_documents():
    """The scaling family at basis seed 1, all members seeded together."""
    return family.seeded_documents(family_documents(), 1)


def scaling_golden(name):
    return GOLDEN / "scaling" / f"{name}.action.json"


@pytest.mark.parametrize("name", SCALING_ACTION)
def test_scaling_action_matches_golden(name):
    code, out, _ = run_document(scaling_documents()[name], "action")
    assert code == 0
    assert out == scaling_golden(name).read_text()


def regenerate():
    codes = {}
    for name in corpus_names():
        for command in COMMANDS:
            case = f"{name}.{command}"
            code, out, err = run_cli(name, command)
            codes[case] = code
            golden_path(case, code).write_text(out if code == 0 else err)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=1) + "\n")
    for command in ("verify", "action"):
        code, out, _ = run_document(b4_doubled(), command)
        assert code == 0, command
        (GOLDEN / f"b4double_rank8.{command}.json").write_text(out)
    docs = scaling_documents()
    for name in SCALING_ACTION:
        code, out, _ = run_document(docs[name], "action")
        assert code == 0, name
        scaling_golden(name).write_text(out)


if __name__ == "__main__":
    regenerate()
