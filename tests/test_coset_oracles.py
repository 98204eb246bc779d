"""Coset enumeration against the enumerator it replaced.

`orbpi.coset_enumerate` used to scan every relator from every live coset and
then walk every relator from every coset of the finished table again; on a
power relator x^n of a group of order about n both cost O(n^2).  It now skips
the scans that a closed power cycle already proves and checks the finished
table by cycle lengths, and its coincidences move each dead coset's entries
onto its live label, so that table entries never name dead cosets.  None of
these changes may alter the table HLT builds, so both enumerators must give
the same order, or the same Unknown (None), on every input below: the
Platonic triples with entries up to 8 at three bounds, the dihedral triples
(2,2,n), the Coxeter presentations of S3-S6 and seeded random presentations
made of powers of short words.  The old enumerator is kept below, as it
stood in `orbpi`.
"""

import random

import pytest
import workloads

from crystorb import orbpi
from crystorb.orbpi import Presentation, central_line_quotient

# ---------------------------------------------------------------------------
# oracle: HLT with full rescans and a quadratic final check

class _Exceeded(Exception):
    pass


class _CosetTable:
    def __init__(self, ngens, bound):
        self.ncols = 2 * ngens
        self.rows = []
        self.labels = []
        self.bound = bound

    def new(self):
        if len(self.labels) >= self.bound:
            raise _Exceeded
        c = len(self.labels)
        self.labels.append(c)
        self.rows.append([None] * self.ncols)
        return c

    def find(self, c):
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def get(self, c, col):
        t = self.rows[self.find(c)][col]
        return None if t is None else self.find(t)

    def unify(self, c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.labels[b] = a
            for d in range(self.ncols):
                nb = self.rows[b][d]
                if nb is None:
                    continue
                na = self.rows[a][d]
                if na is None:
                    self.rows[a][d] = nb
                else:
                    stack.append((na, nb))

    def live(self):
        return [c for c in range(len(self.labels)) if self.find(c) == c]


def _col(letter):
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _scan_and_fill(table: _CosetTable, start, word):
    f, i = start, 0
    b, j = start, len(word) - 1
    while True:
        while i <= j:
            t = table.get(f, _col(word[i]))
            if t is None:
                break
            f, i = t, i + 1
        if i > j:
            if table.find(f) != table.find(b):
                table.unify(f, b)
            return
        while j >= i:
            t = table.get(b, _col(-word[j]))
            if t is None:
                break
            b, j = t, j - 1
        if j < i:
            if table.find(f) != table.find(b):
                table.unify(f, b)
            return
        f_, b_ = table.find(f), table.find(b)
        if i == j:
            # both slots are open: record the deduction
            table.rows[f_][_col(word[i])] = b_
            table.rows[b_][_col(-word[i])] = f_
            return
        n = table.new()
        table.rows[f_][_col(word[i])] = n
        table.rows[n][_col(-word[i])] = f_
        f, i = n, i + 1


def coset_enumerate(p: Presentation, bound=10000):
    """Order of the presented group, or None when the coset table fails to
    close within `bound` cosets (the verdict is then unknown)."""
    ngens = len(p.generators)
    if ngens == 0:
        return 1
    table = _CosetTable(ngens, bound)
    try:
        table.new()
        alpha = 0
        while alpha < len(table.labels):
            if table.find(alpha) != alpha:
                alpha += 1
                continue
            for w in p.relators:
                if table.find(alpha) != alpha:
                    break
                _scan_and_fill(table, alpha, w)
            if table.find(alpha) == alpha:
                for col in range(table.ncols):
                    if table.get(alpha, col) is None:
                        n = table.new()
                        inv_col = col + 1 if col % 2 == 0 else col - 1
                        table.rows[alpha][col] = n
                        table.rows[n][inv_col] = alpha
            alpha += 1
    except _Exceeded:
        return None

    live = table.live()
    for c in live:
        for col in range(table.ncols):
            if table.get(c, col) is None:
                raise AssertionError("coset table closed with holes")
        for w in p.relators:
            cur = c
            for x in w:
                cur = table.get(cur, _col(x))
            if cur != c:
                raise AssertionError("relator fails to close on finished table")
    return len(live)


# ---------------------------------------------------------------------------
# inputs

def _both(p, bound):
    return orbpi.coset_enumerate(p, bound=bound), coset_enumerate(p, bound=bound)


TRIPLES = [(a, b, c) for a in range(2, 9) for b in range(a, 9) for c in range(b, 9)]


@pytest.mark.parametrize("bound", [50, 300, 10000])
def test_triples_up_to_8(bound):
    for triple in TRIPLES:
        new, old = _both(central_line_quotient(*triple), bound)
        assert new == old, (triple, bound)


def test_dihedral_triples():
    for n in range(2, 61):
        assert _both(central_line_quotient(2, 2, n), 10000) == (2 * n, 2 * n)


def test_coxeter_symmetric_groups():
    for n, order in ((3, 6), (4, 24), (5, 120), (6, 720)):
        doc = workloads._coxeter_sn(n)["presentation"]
        p = Presentation.make(doc["generators"], doc["relators"])
        assert _both(p, 10000) == (order, order)


def random_presentations(count, seed):
    """Presentations on 1-3 generators with 1-4 relators, each a random
    word of length 1-4 raised to a power from 1 to 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ngens = rng.randint(1, 3)
        letters = [x for g in range(1, ngens + 1) for x in (g, -g)]
        relators = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                    * rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        out.append(Presentation.make([f"g{i}" for i in range(ngens)], relators))
    return out


def test_random_presentations():
    answers = []
    for p in random_presentations(300, seed=1):
        new, old = _both(p, 500)
        assert new == old, p
        answers.append(new)
    assert any(a is None for a in answers) and any(a is not None and a > 1 for a in answers)


def cosets_defined(p, bound):
    """The number of cosets the old enumerator defines on p, which must be
    at most `bound`: the least bound at which its table closes."""
    lo, hi = 1, bound
    while lo < hi:
        mid = (lo + hi) // 2
        if coset_enumerate(p, bound=mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_same_cosets_defined():
    # the skipped scans define nothing, so HLT defines as many cosets
    finite = [central_line_quotient(2, 2, n) for n in (2, 3, 7, 16, 31, 60)]
    finite += [central_line_quotient(*t) for t in ((2, 3, 3), (2, 3, 4), (2, 3, 5))]
    finite += [p for p in random_presentations(300, seed=1)
               if coset_enumerate(p, bound=500) is not None]
    for p in finite:
        assert len(orbpi._hlt(p, 10000).labels) == cosets_defined(p, 10000), p


def _coxeter(n):
    doc = workloads._coxeter_sn(n)["presentation"]
    return Presentation.make(doc["generators"], doc["relators"])


# the number of cosets HLT defines on each input of the `presentations`
# benchmark, as the enumerator above defines them; None when the bound is
# exhausted
BENCHMARK_COSETS = [
    ("triple_2_2_10", central_line_quotient(2, 2, 10), 10000, 28),
    ("triple_2_2_100", central_line_quotient(2, 2, 100), 10000, 298),
    ("triple_2_2_250", central_line_quotient(2, 2, 250), 10000, 748),
    ("triple_2_2_500", central_line_quotient(2, 2, 500), 10000, 1498),
    ("triple_2_2_1000", central_line_quotient(2, 2, 1000), 10000, 2998),
    ("coxeter_s5", _coxeter(5), 10000, 239),
    ("coxeter_s6", _coxeter(6), 10000, 1606),
    ("coxeter_s7", _coxeter(7), 20000, 12643),
    ("triple_2_2_2500", central_line_quotient(2, 2, 2500), 10000, 7498),
    ("triple_2_3_7", central_line_quotient(2, 3, 7), 10000, None),
    ("triple_3_3_3", central_line_quotient(3, 3, 3), 10000, None),
    ("triple_2_4_5", central_line_quotient(2, 4, 5), 10000, None),
]


@pytest.mark.parametrize("p, bound, defined", [
    pytest.param(p, bound, defined, id=name) for name, p, bound, defined in BENCHMARK_COSETS])
def test_cosets_defined_on_benchmark_presentations(p, bound, defined):
    table = orbpi._hlt(p, bound)
    assert (None if table is None else len(table.labels)) == defined


def assert_live_and_consistent(table):
    """Every entry of a live coset is undefined or names a live coset, and
    c.x = d exactly when d.x^-1 = c."""
    labels, cols = table.labels, table.cols
    for c in range(len(labels)):
        if labels[c] != c:
            continue
        for x, col in enumerate(cols):
            d = col[c]
            if d is not None:
                assert labels[d] == d, (c, x, d)
                assert cols[x ^ 1][d] == c, (c, x, d)


def test_entries_name_live_cosets(monkeypatch):
    # checked after every coincidence, and on every finished table
    unify = orbpi._CosetTable.unify

    def checked_unify(table, c1, c2):
        unify(table, c1, c2)
        assert_live_and_consistent(table)

    monkeypatch.setattr(orbpi._CosetTable, "unify", checked_unify)
    inputs = [(central_line_quotient(*t), 300) for t in TRIPLES]
    inputs += [(_coxeter(n), 10000) for n in (3, 4, 5, 6)]
    inputs += [(p, 500) for p in random_presentations(300, seed=1)]
    finished = 0
    for p, bound in inputs:
        table = orbpi._hlt(p, bound)
        if table is not None:
            assert_live_and_consistent(table)
            finished += 1
    assert finished > 100
