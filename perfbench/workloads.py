"""The three workloads as job lists, with their expected verdicts.

A job is one CLI call: a command and the JSON document it reads on stdin.
Only basis-invariant answers are checked: group order, torsion freeness,
evenness, existence of J, the action's classification, the number of
pseudoreflections, the divisor multiplicities, the number of Hodge types,
tangent agreement, and presentation orders.  Pseudoreflection indices and
the J mode change with the basis and are not checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import family

GROUP_COMMANDS = ("verify", "realize", "even", "jstruct", "action", "teich")


@dataclass(frozen=True)
class Job:
    label: str
    command: str
    text: str           # the JSON document the program reads
    expect: dict


# group -> verdicts.  "npr" is the pseudoreflection count, "mult" the sorted
# divisor multiplicities, "types" the number of Hodge types.  Groups that are
# not even have no classification: `action` exits 1 on them.
def _g(order, torsion_free, even, kind=None, npr=0, mult=(), types=0):
    return {"order": order, "torsion_free": torsion_free, "even": even,
            "kind": kind, "npr": npr, "mult": list(mult), "types": types}


CORPUS = {
    "bdf_surface": _g(2, True, True, "free", types=1),
    "c3_rank2": _g(3, False, True, "divisorial", 2, (3, 3, 3), 2),
    "c6_rank2": _g(6, False, True, "divisorial", 5, (2, 3, 6), 2),
    "d4_rank2": _g(8, False, False),
    "diag_sign_rank2": _g(2, False, False),
    "halftrans_rank2": _g(2, False, True, "divisorial", 1, (2, 2, 2, 2), 1),
    "klein_rank2": _g(2, True, False),
    "kummer4": _g(2, False, True, "quasi_free", types=1),
    "minus1_rank2": _g(2, False, True, "divisorial", 1, (2, 2, 2, 2), 1),
    "mixed_c2c2": _g(4, False, True, "divisorial", 1, (2, 2), 1),
    "pseudoref_product": _g(2, False, True, "divisorial", 1, (2, 2, 2, 2), 1),
    "q8_rank4": _g(8, False, True, "quasi_free", types=1),
    "rot4_rank2": _g(4, False, True, "divisorial", 3, (2, 4, 4), 2),
    "rot4_sum_rank4": _g(4, False, True, "quasi_free", types=3),
    "s3_rank2": _g(6, False, False),
    "s3_rank4": _g(6, False, True, "divisorial", 3, (2,), 1),
    "trivial_rank2": _g(1, True, True, "free", types=1),
    "trivial_rank4": _g(1, True, True, "free", types=1),
    "trivial_rank6": _g(1, True, True, "free", types=1),
}

SCALING = {
    "b4_rank4": _g(384, False, False),
    "s5_rank6": _g(120, False, False),
    "c6c6_rank4": _g(36, False, True),
    "c6wr_rank4": _g(72, False, True),
    "b3diag_rank6": _g(48, False, True, "divisorial", 9, (2, 2, 2, 2, 2)),
    "c3wr_rank6": _g(81, False, True, types=2),
    "s4double_rank8": _g(24, False, True, "divisorial", 6, (2,), 1),
}


def _coxeter_sn(n):
    """Coxeter presentation of S_n on s_1 .. s_(n-1)."""
    rels = []
    for i in range(1, n):
        rels.append([i, i])
        for j in range(i + 1, n):
            rels.append([i, j] * (3 if j == i + 1 else 2))
    return {"presentation": {"generators": [f"s{i}" for i in range(1, n)],
                             "relators": rels}}


def _triple(m1, m2, m3, order):
    """A triple job; `order` None means the table lists no order (Unknown
    is accepted, any reported order must then equal `finite_order`)."""
    key = sorted((m1, m2, m3))
    finite = key[0] * key[1] + key[0] * key[2] + key[1] * key[2] > key[0] * key[1] * key[2]
    finite_order = 2 * key[2] if key[:2] == [2, 2] else {(2, 3, 3): 12, (2, 3, 4): 24,
                                                         (2, 3, 5): 60}.get(tuple(key))
    return (f"triple_{m1}_{m2}_{m3}", {"triple": [m1, m2, m3]},
            {"finite": finite, "order": order, "finite_order": finite_order})


def _presentation(name, doc, order):
    return (name, doc, {"order": order, "finite_order": order})


# Z/3 x Z/4 as the free abelian group on a, b with loops a^3 and b^4
_ABELIAN_3_4 = {"presentation": {"generators": ["a", "b"], "relators": [[1, 2, -1, -2]]},
                "loops": [[1], [2]], "multiplicities": [3, 4]}

CORPUS_PLATONIC = [
    _triple(2, 3, 3, 12), _triple(2, 3, 4, 24), _triple(2, 3, 5, 60),
    _triple(2, 2, 7, 14), _triple(2, 3, 7, None),
    _presentation("abelian_3_4", _ABELIAN_3_4, 12),
]

PRESENTATIONS = [
    *[_triple(2, 2, n, 2 * n) for n in (10, 100, 250, 500, 1000)],
    _presentation("coxeter_s5", _coxeter_sn(5), 120),
    _presentation("coxeter_s6", _coxeter_sn(6), 720),
    # S7 closes only above the default bound of 10000 cosets
    _presentation("coxeter_s7", {**_coxeter_sn(7), "options": {"bound": 20000}}, 5040),
    # these exhaust the default bound: Unknown is the expected answer
    _triple(2, 3, 7, None), _triple(3, 3, 3, None), _triple(2, 4, 5, None),
    _triple(2, 2, 2500, None),
]

WORKLOADS = ("corpus", "scaling", "presentations")


def _group_jobs(docs, table, commands):
    return [Job(f"{name}:{cmd}", cmd, json.dumps(docs[name]), table[name])
            for name in sorted(docs) for cmd in commands[name]]


def _platonic_jobs(entries):
    return [Job(f"{name}:platonic", "platonic", json.dumps(doc), expect)
            for name, doc, expect in entries]


def build(workload, basis_seed):
    """The job list of one pass of `workload`."""
    if workload == "corpus":
        from crystorb.corpus import load_corpus
        docs = family.seeded_documents({n: load_corpus(n) for n in CORPUS}, basis_seed)
        return (_group_jobs(docs, CORPUS, dict.fromkeys(CORPUS, GROUP_COMMANDS))
                + _platonic_jobs(CORPUS_PLATONIC))
    if workload == "scaling":
        members = family.scaling_family()
        docs = family.seeded_documents({n: d for n, (d, _) in members.items()}, basis_seed)
        return _group_jobs(docs, SCALING, {n: cmds for n, (_, cmds) in members.items()})
    if workload == "presentations":
        return _platonic_jobs(PRESENTATIONS)
    raise ValueError(f"unknown workload {workload!r}")


def isolation_probe(basis_seed):
    """The `action` job run twice per benchmark run to show jobs are cold."""
    return next(j for j in build("corpus", basis_seed) if j.label == "mixed_c2c2:action")


# ---------------------------------------------------------------------------
# checking

def _order_error(want, finite_order, got, finite=True):
    if got is None:
        return f"order Unknown, expected {want}" if want is not None else None
    if not finite:
        return f"infinite group reported order {got}"
    if got != finite_order:
        return f"order {got}, expected {finite_order}"
    return None


def check(job, code, result):
    """Returns (error or None, number of answers the program reported as
    unsupported).  `tangent_agrees: null` is the program saying the sampler
    does not support a split; it is counted, not failed."""
    e = job.expect
    cmd = job.command
    want_code = 1 if cmd == "action" and not e.get("even", True) else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}", 0
    if code != 0:
        return None, 0
    if cmd == "platonic":
        if "triple" in json.loads(job.text):
            if result["finite"] != e["finite"]:
                return f"finite {result['finite']}, expected {e['finite']}", 0
            return _order_error(e["order"], e["finite_order"], result["quotient_order"],
                                e["finite"]), 0
        return _order_error(e["order"], e["finite_order"], result["order"]), 0
    got = {}
    want = {}
    if cmd == "verify":
        got = {"order": result["order"], "torsion_free": result["torsion_free"]}
    elif cmd == "realize":
        got = {"order": len(result["input_system"]),
               "consistent": result["cocycle_consistent"], "equivalent": result["equivalent"]}
        want = {"consistent": True, "equivalent": True}
    elif cmd == "even":
        got = {"even": result["even"]}
    elif cmd == "jstruct":
        got = {"even": result["even"], "exists": result["exists"]}
        want = {"exists": e["even"]}
    elif cmd == "action":
        got = {"kind": result["classification"], "npr": len(result["pseudoreflections"]),
               "mult": sorted(d["multiplicity"] for d in result["divisor_classes"])}
    elif cmd == "teich":
        agrees = [t["tangent_agrees"] for t in result["types"]]
        got = {"even": result["even"], "types": len(agrees), "disagrees": False in agrees}
        want = {"disagrees": False}
    for key, value in got.items():
        expected = want.get(key, e.get(key))
        if value != expected:
            return f"{key} {value!r}, expected {expected!r}", 0
    unsupported = sum(t["tangent_agrees"] is None for t in result.get("types", ()))
    return None, unsupported
