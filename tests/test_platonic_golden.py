"""Golden files for `platonic`: byte-identical JSON output on the benchmark's
six corpus documents (`workloads.CORPUS_PLATONIC`) and twelve presentation
documents (`workloads.PRESENTATIONS`).

tests/golden/platonic/<label>.json holds the report of one document; all of
them exit 0.  (2,3,7) is in both lists, so there are 17 files.  They were
written by the enumerator that rescanned every relator from every coset, so
they pin that the power-cycle skip and the cycle-length check change no
order and no Unknown.  triple_2_2_2500.json was rewritten when a triple's
group became its von Dyck presentation: with the central loop gone from the
generators, HLT closes that table under the default bound.  After an
intended change of output, rewrite them with

    PYTHONPATH=src:perfbench python tests/test_platonic_golden.py
"""

import json
from pathlib import Path

import pytest
import workloads
from test_golden import run_document

GOLDEN = Path(__file__).parent / "golden" / "platonic"
ENTRIES = {name: doc for name, doc, _ in workloads.CORPUS_PLATONIC + workloads.PRESENTATIONS}


def test_golden_covers_platonic_documents():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_platonic_matches_golden(name):
    code, out, err = run_document(ENTRIES[name], "platonic")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_dihedral_2500_closes():
    # the von Dyck presentation closes on 5,000 cosets within the default bound
    report = json.loads((GOLDEN / "triple_2_2_2500.json").read_text())
    assert report["result"]["quotient_order"] == 5000
    assert report["result"]["enumeration_agrees"] is True


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in sorted(ENTRIES.items()):
        code, out, err = run_document(doc, "platonic")
        assert code == 0, (name, err)
        (GOLDEN / f"{name}.json").write_text(out)
