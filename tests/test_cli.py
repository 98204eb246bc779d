import argparse
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import family
import pytest
from conftest import crystal_group, cyclotomic_documents, family_documents, validate_report
from jcheck import assert_invariant_j

from crystorb import cli, crystal, hodge, orbpi
from crystorb.corpus import corpus_names, load_corpus


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def corpus_path(tmp_path, name):
    return write_doc(tmp_path, load_corpus(name), f"{name}.json")


SRC = Path(__file__).resolve().parent.parent / "src"
# runs cli.main on the document at argv[1] in an address space of 10^9 bytes
LETTER_LIMIT_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))
from crystorb import cli
sys.exit(cli.main(["platonic", "--input", sys.argv[1], "--format", "json"]))
"""


class TestBasics:
    def test_platonic_triple(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"triple": [2, 3, 5]})
        code, out, _ = run(capsys, "platonic", "--input", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["finite"] is True
        assert report["result"]["class"] == "icosahedral family"
        assert report["result"]["quotient_order"] == 60

    @pytest.mark.parametrize("bound, order, agrees", [(5, None, None), (10000, 14, True)])
    def test_platonic_inconclusive_enumeration(self, capsys, tmp_path, bound, order, agrees):
        # (2,2,7) is finite of order 14: an enumeration that runs out of
        # bound neither agrees nor disagrees with that
        path = write_doc(tmp_path, {"triple": [2, 2, 7]})
        code, out, _ = run(capsys, "platonic", "--input", path, "--bound", str(bound),
                           "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["finite"] is True
        assert result["quotient_order"] == order
        assert result["enumeration_agrees"] is agrees

    def test_platonic_multiplicity_beyond_bound(self, capsys, tmp_path):
        # c3 has order 10^8 > bound, so the table cannot close; the relator
        # c3^(10^8) must not be built
        path = write_doc(tmp_path, {"triple": [2, 2, 100000000]})
        start = time.perf_counter()
        code, out, _ = run(capsys, "platonic", "--input", path, "--format", "json")
        assert time.perf_counter() - start < 0.5
        assert code == 0
        result = json.loads(out)["result"]
        assert result["finite"] is True
        assert result["quotient_order"] is None
        assert result["enumeration_agrees"] is None

    def test_platonic_enumerates_only_triples_that_can_close(self, capsys, tmp_path,
                                                             monkeypatch):
        # every triple with entries 2-8 reports what a direct enumeration
        # gives; the enumeration runs only for a finite triple within the
        # bound, since an infinite von Dyck group's table cannot close.
        # `finite` is read off the enumeration at the largest bound, where
        # every finite triple up to 8 closes
        triples = [(a, b, c) for a in range(2, 9) for b in range(a, 9) for c in range(b, 9)]
        bounds = (5, 300, 10000)
        direct = {(t, bound): orbpi.coset_enumerate(orbpi.central_line_quotient(*t), bound)
                  for t in triples for bound in bounds}
        worked = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                worked.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(orbpi, "coset_enumerate", counted(orbpi.coset_enumerate))
        monkeypatch.setattr(orbpi, "central_line_quotient", counted(orbpi.central_line_quotient))
        for bound in bounds:
            for t in triples:
                path = write_doc(tmp_path, {"triple": list(t)})
                worked.clear()
                code, out, _ = run(capsys, "platonic", "--input", path, "--bound", str(bound),
                                   "--format", "json")
                assert code == 0
                result = json.loads(out)["result"]
                order, finite = direct[t, bound], direct[t, 10000] is not None
                assert result["finite"] is finite, (t, bound)
                assert result["quotient_order"] == order, (t, bound)
                assert result["enumeration_agrees"] is (None if order is None else finite)
                expected = (["central_line_quotient", "coset_enumerate"]
                            if finite and max(t) <= bound else [])
                assert worked == expected, (t, bound)

    @pytest.mark.parametrize("doc, path", [
        ({"presentation": {"generators": ["a"], "relators": []}, "loops": [[1]],
          "multiplicities": [10 ** 8]}, "input.multiplicities[0]"),
        ({"triple": [2, 2, 10 ** 8], "options": {"bound": 10 ** 9}}, "input.triple"),
        # an infinite triple is refused at the letter limit too: the limit
        # is checked before finiteness, so the exit code does not depend on it
        ({"triple": [2, 3, 10 ** 8], "options": {"bound": 10 ** 9}}, "input.triple"),
    ], ids=["loop", "triple", "infinite_triple"])
    def test_platonic_relators_past_letter_limit(self, tmp_path, doc, path):
        # relators of 10^8 letters are refused before any is built; the
        # child's address space is capped so that building one fails fast
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(SRC), env.get("PYTHONPATH", "")))
        run = subprocess.run([sys.executable, "-c", LETTER_LIMIT_CHILD, write_doc(tmp_path, doc)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout) == (1, ""), run.stderr
        assert run.stderr == (f"error: {path}: the relators would pass "
                              f"{cli.MAX_LETTERS} letters\n")

    def test_platonic_large_bound_allocates_nothing_up_front(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"triple": [2, 3, 5], "options": {"bound": 10 ** 12}})
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "platonic", "--input", path, "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["result"]["quotient_order"] == 60
        assert peak < 2 ** 20

    def test_platonic_presentation(self, capsys, tmp_path):
        doc = {"presentation": {"generators": ["a"], "relators": [[1, 1, 1]]}}
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "platonic", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["order"] == 3

    def test_even_kummer(self, capsys, tmp_path):
        path = corpus_path(tmp_path, "kummer4")
        code, out, _ = run(capsys, "even", "--input", path, "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["even"] is True
        assert result["classes"] == [{
            "labels": ["chi1"], "type": "real", "degree": 1,
            "multiplicity": 4, "complex_dim": 4, "parity": "even"}]

    def test_verify_normalizes_pure_translation(self, capsys, tmp_path):
        path = corpus_path(tmp_path, "halftrans_rank2")
        code, out, _ = run(capsys, "verify", "--input", path, "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["normalized"] is True
        assert "notice" in result and "basis_change" in result
        assert result["order"] == 2

    def test_action_mixed(self, capsys, tmp_path):
        path = corpus_path(tmp_path, "mixed_c2c2")
        code, out, _ = run(capsys, "action", "--input", path, "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["classification"] == "divisorial"
        assert result["gpr_index"] == 2
        assert result["quasi_etale_certified"] is True

    def test_teich_reports_tangent_agreement(self, capsys, tmp_path):
        path = corpus_path(tmp_path, "rot4_sum_rank4")
        code, out, _ = run(capsys, "teich", "--input", path, "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == 3
        assert all(t["tangent_agrees"] for t in result["types"])

    def test_teich_omega_membership(self, capsys, tmp_path):
        doc = load_corpus("trivial_rank2")
        doc["omega"] = [[["1", "0"]], [["0", "1"]]]
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "teich", "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["omega_in_parameter_space"] is True

    # Omega in T: (1, i) for n = 1, the sum of two such blocks for n = 2
    IN_T = {"minus1_rank2": [[["1", "0"]], [["0", "1"]]],
            "kummer4": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                        [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "-1"]]]}

    @staticmethod
    def _conjugated(omega, columns):
        return [[[re, str(-int(im))] if j in columns else [re, im]
                 for j, (re, im) in enumerate(row)] for row in omega]

    @pytest.mark.parametrize("name", ["minus1_rank2", "kummer4"])
    def test_teich_omega_outcomes(self, capsys, tmp_path, name):
        # i^n det(Omega | conj Omega) > 0: conjugating one column swaps two
        # columns of the determinant and leaves T; conjugating all n swaps
        # n pairs, so conj Omega lies in T exactly when n is even
        omega = self.IN_T[name]
        n = len(omega[0])
        degenerate = [[[str(i + j), "0"] for j in range(n)] for i in range(2 * n)]
        cases = [(omega, True), (self._conjugated(omega, {0}), False),
                 (self._conjugated(omega, set(range(n))), n % 2 == 0), (degenerate, None)]
        for om, member in cases:
            path = write_doc(tmp_path, {**load_corpus(name), "omega": om})
            code, out, _ = run(capsys, "teich", "--input", path, "--format", "json")
            assert code == 0
            result = json.loads(out)["result"]
            assert result["omega_in_parameter_space"] is member
            assert result.get("omega_degenerate", False) is (member is None)
        wrong = [[["1", "0"]] * (n + 1)] * (2 * n + 2)
        path = write_doc(tmp_path, {**load_corpus(name), "omega": wrong})
        code, out, err = run(capsys, "teich", "--input", path, "--format", "json")
        assert code == 1 and out == ""
        assert f"input.omega: row count must equal the rank {2 * n}" in err

    def test_text_format(self, capsys, tmp_path):
        path = corpus_path(tmp_path, "klein_rank2")
        code, out, _ = run(capsys, "verify", "--input", path)
        assert code == 0
        assert "torsion_free: True" in out


class TestExitCodes:
    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        code, _, err = run(capsys, "even", "--input", str(p))
        assert code == 1
        assert "invalid JSON" in err

    def test_json_nested_too_deeply(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        code, _, err = run(capsys, "even", "--input", str(p))
        assert code == 1
        assert err.startswith("error: input: invalid JSON (maximum recursion depth")

    def test_unknown_field_located(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"rank": 2, "generators": [], "bogus": 1})
        code, _, err = run(capsys, "even", "--input", path)
        assert code == 1
        assert "input.bogus" in err

    def test_bad_rational_located(self, capsys, tmp_path):
        doc = {"rank": 2, "generators": [
            {"linear": [[1, 0], [0, 1]], "translation": ["x", "0"]}]}
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "even", "--input", path)
        assert code == 1
        assert "translation[0]" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "even", "--input", "/nonexistent.json")
        assert code == 1
        assert err.startswith("error: --input: [Errno 2]")

    def test_integer_past_digit_limit_located(self, capsys, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"rank": ' + "1" * 5000 + "}")
        code, _, err = run(capsys, "even", "--input", str(p))
        assert code == 1
        assert err.startswith("error: input: invalid JSON (Exceeds the limit")

    def test_non_utf8_input_located(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"rank": 2, "note": "caf\u00e9"}'.encode("latin-1"))
        code, _, err = run(capsys, "even", "--input", str(p))
        assert code == 1
        assert err.startswith("error: input: not UTF-8 ('utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["verify", "realize", "even", "jstruct",
                                         "action", "teich"])
    def test_pure_translation_past_digit_limit_absorbed(self, capsys, tmp_path, command):
        # translations 1/p and 1/q, p and q coprime with 2,201 digits: the
        # pure translation found first has the 4,401-digit denominator p q,
        # more digits than Python converts to a string
        p, q = 10 ** 2200 + 1, 10 ** 2200 + 3
        doc = {"rank": 2, "generators": [
            {"linear": [[-1, 0], [0, -1]], "translation": [f"1/{p}", "0"]},
            {"linear": [[1, 0], [0, 1]], "translation": ["0", f"1/{q}"]}]}
        code, out, err = run(capsys, command, "--input", write_doc(tmp_path, doc),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == command

    # translation 1/p on the first generator and 1/q on the second, p and q
    # coprime with 3,001 digits: the pure translations they make span a
    # lattice whose basis change has entries past the 4,300-digit limit of
    # int -> str, and only verify prints that basis change
    QUARTER_TURN = ([[0, -1], [1, 0]], [[-1, 0], [0, -1]])
    SWAP = ([[-1, 0], [0, -1]], [[0, 1], [1, 0]])

    @staticmethod
    def absorbed_past_digit_limit(first, second):
        p, q = 10 ** 3000 + 1, 10 ** 3000 + 3
        return {"rank": 2, "generators": [
            {"linear": first, "translation": [f"1/{p}", "0"]},
            {"linear": second, "translation": ["0", f"1/{q}"]}]}

    @pytest.mark.parametrize("linear", [QUARTER_TURN, SWAP])
    def test_absorbed_lattice_past_digit_limit_located(self, capsys, tmp_path, linear):
        doc = self.absorbed_past_digit_limit(*linear)
        code, out, err = run(capsys, "verify", "--input", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == ("error: input.generators: the absorbed translation lattice "
                       "has entries too long to print\n")

    @pytest.mark.parametrize("command", ["realize", "even", "jstruct", "action", "teich"])
    def test_absorbed_lattice_past_digit_limit_unprinted(self, capsys, tmp_path, command):
        doc = self.absorbed_past_digit_limit(*self.QUARTER_TURN)
        code, out, err = run(capsys, command, "--input", write_doc(tmp_path, doc),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == command

    # D4 = <F, T> on Z^2, F = diag(1, -1) with translation (0, 1/q) and the
    # swap T with (1/p, -1/p), p and q coprime with 2,201 digits, has no
    # pure translation, but F T carries (1/p, 1/p + 1/q), over the
    # 4,401-digit p q.  With F and T conjugated by [[1, N], [0, 1]],
    # N = 10^2150, the generators' largest entry N^2 - 1 has 4,300 digits,
    # and F T's N^2 + 1 has one more.  -1 with translation 1/B, B = 6*10^4299
    # + 1 of 4,300 digits, prints, but its shift witness and its divisor
    # base points lie over 2B, one digit past the limit, in ranks 1 and 2.
    P, Q, N, B = 10 ** 2200 + 1, 10 ** 2200 + 3, 10 ** 2150, 6 * 10 ** 4299 + 1
    PAST_DIGIT_LIMIT = {
        "derived": [{"linear": [[-1, 0], [0, -1]], "translation": [f"1/{B}", "0"]}],
        "derived_rank1": [{"linear": [[-1]], "translation": [f"1/{B}"]}],
        "translation": [{"linear": [[1, 0], [0, -1]], "translation": ["0", f"1/{Q}"]},
                        {"linear": [[0, 1], [1, 0]], "translation": [f"1/{P}", f"-1/{P}"]}],
        "linear": [{"linear": [[1, -2 * N], [0, -1]]},
                   {"linear": [[N, 1 - N * N], [1, -N]]}],
    }

    @pytest.mark.parametrize("kind, command, message", [
        ("translation", "verify", "the group"),
        ("translation", "realize", "the vector system"),
        ("linear", "verify", "the group"),
        ("derived", "realize", "the shift witness"),
        ("derived_rank1", "realize", "the shift witness"),
        ("derived", "action", "a divisor base point"),
    ])
    def test_report_past_digit_limit_located(self, capsys, tmp_path, kind, command,
                                             message):
        gens = self.PAST_DIGIT_LIMIT[kind]
        doc = {"rank": len(gens[0]["linear"]), "generators": gens}
        code, out, err = run(capsys, command, "--input", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"error: input.generators: {message} has entries too long to print\n"

    @pytest.mark.parametrize("kind, command", [
        ("translation", "even"), ("translation", "jstruct"), ("translation", "teich"),
        ("linear", "realize"), ("linear", "even"), ("linear", "jstruct"),
        ("linear", "teich"), ("derived", "verify"), ("derived", "even"),
        ("derived", "jstruct"), ("derived", "teich"),
    ])
    def test_report_past_digit_limit_unprinted(self, capsys, tmp_path, kind, command):
        gens = self.PAST_DIGIT_LIMIT[kind]
        doc = {"rank": len(gens[0]["linear"]), "generators": gens}
        code, out, err = run(capsys, command, "--input", write_doc(tmp_path, doc),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == command

    @pytest.mark.parametrize("key, bad, where", [
        ("translation", "1e-5000", "input.generators[0].translation[0]"),
        ("omega", "2E3", "input.omega[1][0]"),
    ])
    def test_exponent_notation_located(self, capsys, tmp_path, key, bad, where):
        # Fraction would read 1e-5000 as an integer of 5,001 digits
        doc = {"rank": 2, "generators": [{"linear": [[-1, 0], [0, -1]],
                                          "translation": ["0", "0"]}],
               "omega": [[["1", "0"]], [["0", "1"]]]}
        if key == "omega":
            doc["omega"][1][0][0] = bad
        else:
            doc["generators"][0]["translation"][0] = bad
        code, out, err = run(capsys, "teich", "--input", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"error: {where}: not a rational number: {bad!r}\n"

    def test_action_on_non_even_rejected(self, capsys, tmp_path):
        path = corpus_path(tmp_path, "s3_rank2")
        code, _, err = run(capsys, "action", "--input", path)
        assert code == 1
        assert "complex" in err

    def test_infinite_group_rejected(self, capsys, tmp_path):
        doc = {"rank": 2, "generators": [{"linear": [[1, 1], [0, 1]],
                                          "translation": ["0", "0"]}]}
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "verify", "--input", path)
        assert code == 1
        assert err.startswith("error: input.generators: ") and "not finite" in err

    def test_singular_generator_located(self, capsys, tmp_path):
        # the closure {I, g} of g = [[1, 1], [0, 0]] is finite, and g has no
        # left inverse in it
        doc = {"rank": 2, "generators": [{"linear": [[1, 0], [0, 1]]},
                                         {"linear": [[1, 1], [0, 0]]}]}
        code, out, err = run(capsys, "verify", "--input", write_doc(tmp_path, doc))
        assert code == 1 and out == ""
        assert err == "error: input.generators[1].linear: must be invertible\n"

    # a ValueError inside a handler is the program's fault, not bad input
    @pytest.mark.parametrize("exc", [RuntimeError("synthetic"), ValueError("synthetic")],
                             ids=["RuntimeError", "ValueError"])
    def test_internal_failure_exit_two(self, capsys, tmp_path, monkeypatch, exc):
        def boom(doc, opts):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "even", boom)
        path = write_doc(tmp_path, {"rank": 2, "generators": []})
        code, out, err = run(capsys, "even", "--input", path)
        assert (code, out) == (2, "")
        assert err == f"internal error: {type(exc).__name__}: synthetic\n"

    def test_bad_document_cocycle_located(self, capsys, tmp_path):
        doc = {"rank": 2, "generators": [{"linear": [[-1, 0], [0, -1]]}],
               "cocycle": [[1, 1, [1, 0]]]}
        code, out, err = run(capsys, "realize", "--input", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "error: input.cocycle: cocycle identity fails at (1, 1, 1)\n"

    def test_repeated_cocycle_pair_refused(self, capsys, tmp_path):
        # a later entry used to overwrite an earlier one: with the refused
        # value f(1, 1) = (1, 1) first, the document exited 0
        doc = {"rank": 2, "generators": [{"linear": [[-1, 0], [0, -1]]}],
               "cocycle": [[1, 1, [1, 1]], [0, 1, [0, 0]], [1, 1, [0, 0]]]}
        code, out, err = run(capsys, "realize", "--input", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "error: input.cocycle[2]: repeats the pair (1, 1)\n"

    def test_internal_cocycle_fault_exit_two(self, capsys, tmp_path, monkeypatch):
        # the cocycle of a checked vector system is the program's own: a
        # violation there is an internal fault, not bad input
        build = crystal.cocycle_from_system

        def broken(group):
            values = {**build(group).values, (1, 1): (1, 0)}
            return crystal.ExtensionCocycle(group.group, values)

        monkeypatch.setattr(crystal, "cocycle_from_system", broken)
        doc = {"rank": 2, "generators": [{"linear": [[-1, 0], [0, -1]]}]}
        code, out, err = run(capsys, "realize", "--input", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == ("internal error: CocycleViolation: "
                       "cocycle identity fails at (1, 1, 1)\n")


class TestDeterminism:
    COMMANDS_FOR = {
        "verify": corpus_names(),
        "even": corpus_names(),
        "realize": corpus_names(),
        "jstruct": corpus_names(),
    }

    def test_byte_identical_reruns(self, capsys, tmp_path):
        for name in corpus_names():
            path = corpus_path(tmp_path, name)
            for command in ("verify", "even", "jstruct"):
                code1, out1, _ = run(capsys, command, "--input", path,
                                     "--format", "json", "--precision", "128")
                code2, out2, _ = run(capsys, command, "--input", path,
                                     "--format", "json", "--precision", "128")
                assert code1 == code2 == 0
                assert out1 == out2

    def test_reports_validate(self, capsys, tmp_path):
        for name in corpus_names():
            path = corpus_path(tmp_path, name)
            for command in ("verify", "even", "jstruct"):
                code, out, _ = run(capsys, command, "--input", path,
                                   "--format", "json")
                assert code == 0
                report = json.loads(out)
                assert validate_report(command, report)

    def test_precision_changes_are_isolated(self, capsys, tmp_path):
        # a precision other than the default still certifies; identical
        # options reproduce the bytes
        path = corpus_path(tmp_path, "c3_rank2")
        _, out_a, _ = run(capsys, "jstruct", "--input", path,
                          "--format", "json", "--precision", "64")
        _, out_b, _ = run(capsys, "jstruct", "--input", path,
                          "--format", "json", "--precision", "64")
        assert out_a == out_b


class TestCorpusCoverage:
    def test_corpus_is_large_enough(self):
        assert len(corpus_names()) >= 12

    def test_all_entries_verify(self, capsys, tmp_path):
        for name in corpus_names():
            path = corpus_path(tmp_path, name)
            code, out, _ = run(capsys, "verify", "--input", path, "--format", "json")
            assert code == 0, name


_MINUS1 = {"linear": [[-1, 0], [0, -1]], "translation": ["0", "0"]}
_CYCLIC3 = {"presentation": {"generators": ["a"], "relators": [[1, 1, 1]]}}


class TestBooleansRejected:
    """JSON true/false are not integers, although Python's bool is an int."""

    @pytest.mark.parametrize("command, doc, where", [
        ("verify", {"rank": True, "generators": []}, "input.rank"),
        ("verify", {"rank": 2, "generators": [
            {"linear": [[True, 0], [0, 1]]}]}, "input.generators[0].linear[0][0]"),
        ("verify", {"rank": 2, "generators": [
            {"linear": [[1, 0], [0, 1]], "translation": [False, "0"]}]},
         "input.generators[0].translation[0]"),
        ("verify", {"rank": 2, "generators": [], "options": {"bound": False}},
         "input.options.bound"),
        ("realize", {"rank": 2, "generators": [_MINUS1],
                     "cocycle": [[True, 1, [0, 0]]]}, "input.cocycle[0]"),
        ("realize", {"rank": 2, "generators": [_MINUS1],
                     "cocycle": [[1, 1, [True, 0]]]}, "input.cocycle[0]"),
        ("platonic", {"triple": [2, 3, True]}, "input.triple"),
        ("platonic", {**_CYCLIC3, "loops": [[True]], "multiplicities": [2]},
         "input.loops[0]"),
        ("platonic", {**_CYCLIC3, "loops": [[1]], "multiplicities": [True]},
         "input.multiplicities[0]"),
        ("platonic", {"presentation": {"generators": ["a"], "relators": [[True]]}},
         "input.presentation.relators[0]"),
        ("platonic", {**_CYCLIC3, "loops": [[1]], "multiplicities": True},
         "input.multiplicities"),
    ])
    def test_boolean_is_not_an_integer(self, capsys, tmp_path, command, doc, where):
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, command, "--input", path, "--format", "json")
        assert code == 1
        assert out == ""
        assert f"{where}:" in err
        assert "integer" in err or "indices" in err


class TestPlatonicLoopErrors:
    """A bad loop or multiplicity exits 1 with the JSON path of the field."""

    @pytest.mark.parametrize("doc, message", [
        ({**_CYCLIC3, "loops": [[1]], "multiplicities": [0]},
         "input.multiplicities[0]: must be an integer >= 1"),
        ({**_CYCLIC3, "loops": [[1], [1, 1]], "multiplicities": [2]},
         "input.multiplicities: one multiplicity per loop required"),
        ({**_CYCLIC3, "loops": [[2]], "multiplicities": [3]},
         "input.loops[0]: letter out of range"),
        # a loop of multiplicity 1 adds no relator, but its letters are read
        ({**_CYCLIC3, "loops": [[5, 0]], "multiplicities": [1]},
         "input.loops[0]: letter out of range"),
        ({"presentation": {"generators": ["a"], "relators": [[1, 1, 1], [2]]}},
         "input.presentation.relators[1]: letter out of range"),
    ])
    def test_error_names_the_path(self, capsys, tmp_path, doc, message):
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, "platonic", "--input", path, "--format", "json")
        assert (code, out) == (1, "")
        assert message in err

    def test_cancelling_relator_letters_accepted(self, capsys, tmp_path):
        # [2, -2] reduces to the empty word, so its letters are never read
        doc = {"presentation": {"generators": ["a"], "relators": [[2, -2], [1, 1, 1]]}}
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "platonic", "--input", path, "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["relators"], result["order"]) == ([[1, 1, 1]], 3)


class TestBoundRange:
    @pytest.mark.parametrize("flags, options, where", [
        (["--bound", "-5"], {}, "--bound"),
        (["--bound", "0"], {}, "--bound"),
        ([], {"bound": -5}, "input.options.bound"),
        ([], {"bound": 0}, "input.options.bound"),
    ])
    def test_bound_below_one_rejected(self, capsys, tmp_path, flags, options, where):
        path = write_doc(tmp_path, {**load_corpus("c3_rank2"), "options": options})
        code, out, err = run(capsys, "verify", "--input", path, *flags)
        assert code == 1
        assert out == ""
        assert f"{where}: must be at least 1" in err

    def test_rank_limit(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"rank": cli.MAX_RANK, "generators": []})
        code, out, _ = run(capsys, "verify", "--input", path, "--format", "json")
        report = json.loads(out)["result"]
        assert code == 0 and report["order"] == 1 and report["rank"] == cli.MAX_RANK
        path = write_doc(tmp_path, {"rank": cli.MAX_RANK + 1, "generators": []})
        code, out, err = run(capsys, "verify", "--input", path)
        assert code == 1 and out == ""
        assert f"input.rank: must be at most {cli.MAX_RANK}" in err

    def test_action_component_limit(self, capsys, tmp_path):
        # -I on Z^2n fixes 2^2n points, each listed by `action`: rank 16
        # (65,536) is counted within the limit without listing one, and
        # rank 18 (262,144) is refused before any is listed
        def minus_identity(r):
            return {"rank": r, "generators": [
                {"linear": [[-int(i == j) for j in range(r)] for i in range(r)]}]}

        fixed = crystal_group(minus_identity(16)).fixed_sets.values()
        assert sum(sol.count for sol in fixed) == 2 ** 16 <= cli.MAX_COMPONENTS
        path = write_doc(tmp_path, minus_identity(18))
        start = time.perf_counter()
        code, out, err = run(capsys, "action", "--input", path, "--format", "json")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: input.generators: ") and "262144" in err

    def test_seed_is_no_option(self, capsys, tmp_path):
        # the sampler has no seed: the option and the flag are refused
        path = write_doc(tmp_path, {**load_corpus("c3_rank2"), "options": {"seed": 0}})
        code, out, err = run(capsys, "jstruct", "--input", path)
        assert code == 1 and out == ""
        assert err == "error: input.options.seed: unknown option\n"
        code, out, err = run(capsys, "jstruct", "--input", corpus_path(tmp_path, "c3_rank2"),
                             "--seed", "0")
        assert code == 1 and out == ""
        assert err.endswith("crystorb: error: unrecognized arguments: --seed 0\n")

    def test_bound_one_accepted(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"rank": 2, "generators": [], "options": {"bound": 1}})
        code, _, _ = run(capsys, "verify", "--input", path, "--bound", "1")
        assert code == 0

    def test_bound_is_the_closure_bound_only(self, capsys, tmp_path):
        # B4 x C2 on Z^5, |G| = 768: the scaling family's B4 generators,
        # extended by 1 on the fifth coordinate, and diag(1, 1, 1, 1, -1).
        # The bound that admits the closure admits the character table too.
        gens = [{"linear": [row + [0] for row in g["linear"]] + [[0, 0, 0, 0, 1]]}
                for g in family_documents()["b4_rank4"]["generators"]]
        gens.append({"linear": [[int(i == j) * (-1 if i == 4 else 1) for j in range(5)]
                                for i in range(5)]})
        path = write_doc(tmp_path, {"rank": 5, "generators": gens})
        code, out, _ = run(capsys, "verify", "--input", path, "--bound", "1000",
                           "--format", "json")
        assert code == 0 and json.loads(out)["result"]["order"] == 768
        code, out, err = run(capsys, "even", "--input", path, "--bound", "1000",
                             "--format", "json")
        assert code == 0, err
        assert json.loads(out)["result"]["even"] is False
        code, out, err = run(capsys, "even", "--input", path)
        assert code == 1 and out == ""
        assert err.startswith("error: input.generators: ") and "not finite" in err


class TestPrecisionRange:
    """The precision sets how many digits the decimals of an algebraic J
    carry, as on c3_rank2 and c6_rank2; below 64 bits is bad input."""

    @pytest.mark.parametrize("name", ["c3_rank2", "c6_rank2"])
    @pytest.mark.parametrize("flags, options, where", [
        (["--precision", "0"], {}, "--precision"),
        (["--precision", "1"], {}, "--precision"),
        (["--precision", "20"], {}, "--precision"),
        (["--precision", "63"], {}, "--precision"),
        ([], {"precision": 1}, "input.options.precision"),
        ([], {"precision": 63}, "input.options.precision"),
    ])
    def test_precision_below_64_rejected(self, capsys, tmp_path, name, flags, options, where):
        path = write_doc(tmp_path, {**load_corpus(name), "options": options})
        code, out, err = run(capsys, "jstruct", "--input", path, *flags)
        assert code == 1
        assert out == ""
        assert f"{where}: must be at least 64" in err

    @pytest.mark.parametrize("name", ["c3_rank2", "c6_rank2"])
    @pytest.mark.parametrize("flags, options, where", [
        (["--precision", "16385"], {}, "--precision"),
        ([], {"precision": 16385}, "input.options.precision"),
    ])
    def test_precision_above_ceiling_rejected(self, capsys, tmp_path, name, flags, options,
                                              where):
        path = write_doc(tmp_path, {**load_corpus(name), "options": options})
        code, out, err = run(capsys, "jstruct", "--input", path, *flags)
        assert code == 1
        assert out == ""
        assert f"{where}: must be at most 16384" in err

    def test_precision_ceiling_accepted(self):
        # the enclosure at 16384 bits takes seconds, so the job is built, not run
        doc = load_corpus("c3_rank2")
        assert cli.MAX_PRECISION == 16384
        job = cli.JobSpec.build("jstruct", doc, "json", precision=16384)
        assert job.precision == 16384
        job = cli.JobSpec.build("jstruct", {**doc, "options": {"precision": 16384}}, "json")
        assert job.precision == 16384

    @pytest.mark.parametrize("name", ["c3_rank2", "c6_rank2"])
    def test_precision_64_accepted(self, capsys, tmp_path, name):
        path = corpus_path(tmp_path, name)
        code, out, _ = run(capsys, "jstruct", "--input", path, "--precision", "64",
                           "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["exists"] is True and result["precision_bits"] == 64
        assert result["mode"] == "algebraic" and result["field_order"] == 12
        assert result["j_squared_residual"] == result["commutator_residual"] == "0"
        # the same exact J at any precision; only the rendered digits change
        _, out128, _ = run(capsys, "jstruct", "--input", path, "--format", "json")
        result128 = json.loads(out128)["result"]
        assert result["zeta_coordinates"] == result128["zeta_coordinates"]
        assert [len(x) for row in result["matrix"] for x in row] < \
            [len(x) for row in result128["matrix"] for x in row]


def test_realize_checks_the_cocycle_condition_once(capsys, tmp_path, monkeypatch):
    # affine_realization checks the averaged system and raises on failure;
    # the report states that result instead of checking again
    calls = []
    check = crystal.VectorSystem.is_consistent

    def counted(vs):
        calls.append(vs)
        return check(vs)

    monkeypatch.setattr(crystal.VectorSystem, "is_consistent", counted)
    path = corpus_path(tmp_path, "mixed_c2c2")
    code, out, _ = run(capsys, "realize", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["cocycle_consistent"] is True
    assert len(calls) == 1


class TestSamplerFailures:
    """`teich` reports the types the sampler does not construct as
    tangent_agrees: null, and stops on any other error inside the sampler."""

    @staticmethod
    def _raising(exc):
        def sampler_step(*args, **kwargs):
            raise exc
        return sampler_step

    def test_unsupported_type_reported_as_null(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(hodge, "isotypic_basis",
                            self._raising(hodge.UnsupportedSample("synthetic")))
        path = corpus_path(tmp_path, "c3_rank2")
        code, out, _ = run(capsys, "teich", "--input", path, "--format", "json")
        assert code == 0
        types = json.loads(out)["result"]["types"]
        assert types and all(t["tangent_agrees"] is None for t in types)

    def test_value_error_in_sampler_stops_the_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(hodge, "isotypic_basis",
                            self._raising(ValueError("synthetic fault")))
        path = corpus_path(tmp_path, "c3_rank2")
        code, out, err = run(capsys, "teich", "--input", path, "--format", "json")
        assert code == 2
        assert out == ""
        assert "synthetic fault" in err


@pytest.mark.parametrize("name", ["cyc5_u4", "cyc9_u8", "cyc12_u11"])
def test_jstruct_unsupported_on_cyclotomic_groups(capsys, tmp_path, name):
    # the even groups on which `jstruct` once answered "unsupported": the
    # pairing search found no J in their seeded bases.  At basis seeds 0-3
    # the sampler builds J from their joint eigenspaces, exactly, with no
    # monkeypatching
    for seed in range(4):
        doc = family.seeded_documents(cyclotomic_documents(), seed)[name]
        code, out, _ = run(capsys, "jstruct", "--input", write_doc(tmp_path, doc),
                           "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["mode"] == "exact", (name, seed)
        J = tuple(tuple(Fraction(x) for x in row) for row in result["matrix"])
        assert_invariant_j(J, crystal_group(doc).group)


def test_jstruct_reports_an_unbuilt_j_as_unsupported(capsys, tmp_path, monkeypatch):
    # an even group whose J neither the search nor the sampler builds: J
    # exists, so the job succeeds and says it did not construct one
    monkeypatch.setattr(hodge, "_rational_j", lambda candidates, gens: None)
    monkeypatch.setattr(hodge, "sample_subspace", TestSamplerFailures._raising(
        hodge.UnsupportedSample("synthetic")))
    path = corpus_path(tmp_path, "kummer4")
    code, out, _ = run(capsys, "jstruct", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"exists": True, "mode": "unsupported", "even": True}


class TestUsageErrors:
    """A bad command line is bad input: exit 1, the fixed usage line and
    then `crystorb: error: ` and the message on stderr, nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--input", "-"], "invalid choice: 'classify'"),
        (["verify"], "the following arguments are required: --input"),
        (["verify", "--input", "-", "--bound", "x"], "invalid int value: 'x'"),
        (["verify", "--input"], "argument --input: expected one argument"),
        (["verify", "--bound", "--input", "-"], "argument --bound: expected one argument"),
        (["verify", "--input", "-", "teich", "-x"], "unrecognized arguments: teich -x"),
        (["verify", "--input", "-", "--format", "xml"], "invalid choice: 'xml'"),
        # argparse before 3.13 stores [] for a "--" given after "="
        (["verify", "--input", "-", "--bound=--"], "invalid int value: '--'"),
    ])
    def test_usage_error_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        usage, error = err.splitlines()
        assert usage == cli.USAGE and usage.startswith("usage: crystorb ")
        assert error.startswith("crystorb: error: ") and message in error

    def test_double_dash_after_equals_is_a_value(self):
        # argparse before 3.13 stores [] here, which main could not open
        assert cli.parse_args(["verify", "--input=--"])["input"] == "--"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: crystorb ")


def test_module_entry_point():
    """`python -m crystorb.cli` reads its options from sys.argv and prints
    the golden report, and the job imports none of argparse, locale,
    dataclasses and inspect: -X importtime logs every module the child
    imports, so one it never names is not in sys.modules after the job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), env.get("PYTHONPATH", "")))
    document = SRC / "crystorb" / "corpus" / "kummer4.json"
    run = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-X", "importtime",
         "-m", "crystorb.cli", "verify", "--input", str(document), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    golden = Path(__file__).resolve().parent / "golden" / "kummer4.verify.json"
    assert run.stdout == golden.read_text()
    imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "crystorb.hodge" in imported
    assert not imported & {"argparse", "locale", "dataclasses", "inspect"}


def test_options_before_the_command(capsys, tmp_path):
    path = corpus_path(tmp_path, "c3_rank2")
    reports = {run(capsys, *argv)[1] for argv in (
        ["jstruct", "--input", path, "--format", "json", "--precision", "64"],
        ["--input", path, "--format", "json", "jstruct", "--precision", "64"],
        ["--format", "json", "--precision", "64", "--input", path, "jstruct"],
    )}
    assert len(reports) == 1 and json.loads(reports.pop())["command"] == "jstruct"


# ---------------------------------------------------------------------------
# the parser oracle: the parser cli.main built before it declared the four
# options once, a subparser per command that declares all four

def subparser_oracle():
    parser = argparse.ArgumentParser(
        prog="crystorb",
        description="exact computations with crystallographic groups and "
                    "finite group actions on complex tori")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli.COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True,
                       help="path to a JSON input document, or - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--precision", type=int, default=None)
    return parser


def oracle_fields(argv):
    """The five fields the oracle parses argv into, or None if it refuses.

    Before Python 3.13 argparse drops a "--" given after "=" and stores an
    empty list (`--bound=--` sets bound to []); 3.13 keeps the "--".  The
    oracle has no one answer there, so it gives none."""
    with redirect_stderr(io.StringIO()):
        try:
            fields = vars(subparser_oracle().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            return None
    return None if [] in fields.values() else fields


def main_fields(argv):
    """The five fields cli.parse_args reads argv into, or None for a usage
    error."""
    try:
        return cli.parse_args(argv)
    except cli.UsageError:
        return None


# spellings of each option: the full name and abbreviations
SPELLINGS = {
    "input": ("--input", "--in", "--i", "--inp"),
    "format": ("--format", "--f", "--form"),
    "bound": ("--bound", "--b", "--bou"),
    "precision": ("--precision", "--pre", "--p"),
}
# values each option accepts, then values it refuses or that look like flags
INTEGERS = ("0", "7", "-3", "-1", "64", "x", "1.5", "", "--")
VALUES = {
    "input": ("-", "doc.json", "verify", "-5", "a b", "--", "", "--bound"),
    "format": ("json", "text", "xml", "-"),
    "bound": INTEGERS, "precision": INTEGERS,
}
ACCEPTED = {"input": 5, "format": 2, "bound": 5, "precision": 5}
NOISE = ("--", "-", "-x", "--bogus", "--input", "--bound", "verify",
         "teich", "7", "-1", "doc.json", "--format=json", "--in=-")


def test_one_parser_matches_the_subparser_oracle():
    """Wherever the oracle accepts an argv, cli.main's parser gives the same
    command, input, format, bound and precision; it also accepts the
    same options with the command moved in among them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    accepted = []

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        command = draw(st.sampled_from(cli.COMMANDS))
        groups = []
        names = draw(st.lists(st.sampled_from(sorted(SPELLINGS)), max_size=5))
        if draw(st.integers(0, 4)):
            names.insert(draw(st.integers(0, len(names))), "input")
        for name in names:
            flag = draw(st.sampled_from(SPELLINGS[name]))
            good = VALUES[name][:ACCEPTED[name]]
            value = draw(st.sampled_from(good if draw(st.integers(0, 5)) else VALUES[name]))
            groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
        place = draw(st.integers(0, len(groups)))
        first = [command] + [a for g in groups for a in g]
        moved = [a for g in groups[:place] for a in g] + [command] + \
            [a for g in groups[place:] for a in g]
        noisy = list(first)
        for token in draw(st.lists(st.sampled_from(NOISE), max_size=2)):
            noisy.insert(draw(st.integers(0, len(noisy))), token)
        for argv in (first, noisy):
            expected = oracle_fields(argv)
            if expected is not None:
                assert main_fields(argv) == expected, argv
        # the options are whole flag-value groups, so the command may go
        # between any two of them
        expected = oracle_fields(first)
        if expected is not None:
            accepted.append(place)
            assert main_fields(moved) == expected, moved

    check()
    assert len(accepted) >= 100 and sum(p > 0 for p in accepted) >= 50

