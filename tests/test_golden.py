"""Golden files: byte-identical CLI output for every corpus entry and command.

tests/golden/<entry>.<command>.json holds the canonical JSON report of a
successful run, <entry>.<command>.err the error message of a failed one, and
exit_codes.json the exit code of every run.  After an intended change of
output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("verify", "realize", "even", "jstruct", "action", "teich")


def run_cli(name, command):
    """(exit code, stdout, stderr) of one JSON-format CLI run on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(load_corpus(name)))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, "--input", "-", "--format", "json"])
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


if __name__ == "__main__":
    regenerate()
