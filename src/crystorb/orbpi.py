"""Orbifold fundamental-group utilities: presentation quotients by powers of
loops, the von Dyck presentation of a triple, the Platonic-triple
finiteness inequality and coset enumeration.

Coset enumeration is a semi-decision procedure: it reports a group order
only when the table closes within the coset bound, and Unknown (None)
otherwise; exhausting the bound never claims infiniteness.  It is HLT,
minus the scans of a power relator root^m on root-cycles where it is known
to close, and its finished table is checked in linear time by the lengths
of those cycles (see `coset_enumerate`)."""

from __future__ import annotations

from dataclasses import dataclass


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Presentation:
    """Generators by name; relators as freely reduced words of signed
    1-based generator indices."""

    generators: tuple
    relators: tuple

    @staticmethod
    def make(generators, relators):
        gens = tuple(str(g) for g in generators)
        reduced = []
        for w in relators:
            w = free_reduce(tuple(int(x) for x in w))
            for x in w:
                if x == 0 or abs(x) > len(gens):
                    raise ValueError("relator letter out of range")
            if w:
                reduced.append(w)
        return Presentation(gens, tuple(reduced))

    def with_relators(self, extra):
        return Presentation.make(self.generators, list(self.relators) + list(extra))


def orbifold_quotient(p: Presentation, loops, multiplicities) -> Presentation:
    """Append loop^m for every marked loop; marks of multiplicity one are
    forgotten (they impose no relation)."""
    if len(loops) != len(multiplicities):
        raise ValueError("one multiplicity per loop required")
    extra = []
    for loop, m in zip(loops, multiplicities):
        m = int(m)
        if m < 1:
            raise ValueError("multiplicities must be >= 1")
        if m == 1:
            continue
        word = free_reduce(tuple(int(x) for x in loop))
        extra.append(word * m)
    return p.with_relators(extra)


def central_line_quotient(m1, m2, m3) -> Presentation:
    """The von Dyck group <c1, c2, c3 | c3^-1 c2^-1 c1^-1, c1^m1, c2^m2,
    c3^m3> that the finiteness test enumerates: the fundamental group of
    the plane minus three concurrent lines, marked with the given
    multiplicities, modulo its central loop."""
    for m in (m1, m2, m3):
        if int(m) < 2:
            raise ValueError("multiplicities must be >= 2")
    relators = [(-3, -2, -1)]
    for i, m in zip((1, 2, 3), (m1, m2, m3)):
        relators.append((i,) * int(m))
    return Presentation.make(("c1", "c2", "c3"), relators)


def platonic_check(m1, m2, m3) -> bool:
    """1/m1 + 1/m2 + 1/m3 > 1, exactly; the solutions are the triples
    (2,2,n) and (2,3,3), (2,3,4), (2,3,5) up to order."""
    m1, m2, m3 = int(m1), int(m2), int(m3)
    if min(m1, m2, m3) < 2:
        raise ValueError("multiplicities must be >= 2")
    return m2 * m3 + m1 * m3 + m1 * m2 > m1 * m2 * m3


# ---------------------------------------------------------------------------
# Todd-Coxeter over the trivial subgroup

class _Exceeded(Exception):
    pass


class _Relator:
    """A relator as root^m with m largest, its letters as table columns,
    and, when m > 1, marks[c] set once root^m is known to close at coset
    c."""

    def __init__(self, word):
        n = len(word)
        period = next(d for d in range(1, n + 1)
                      if n % d == 0 and word == word[:d] * (n // d))
        self.cols = [_col(x) for x in word]
        self.root = self.cols[:period]
        self.power = n // period
        self.marks = bytearray() if self.power > 1 else None


class _CosetTable:
    """Cosets 0, 1, ... of the trivial subgroup of p, with one flat list
    per column (2i for generator i + 1, 2i + 1 for its inverse; None while
    undefined), union-find labels for coincidences, and the relators with
    their marks, which grow with the table."""

    def __init__(self, p: Presentation, bound):
        self.cols = [[] for _ in range(2 * len(p.generators))]
        self.labels = []
        self.relators = [_Relator(w) for w in p.relators]
        self.marks = [r.marks for r in self.relators if r.marks is not None]
        self.bound = bound

    def new(self):
        c = len(self.labels)
        if c >= self.bound:
            raise _Exceeded
        self.labels.append(c)
        for col in self.cols:
            col.append(None)
        for marks in self.marks:
            marks.append(0)
        return c

    def find(self, c):
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def get(self, c, col):
        labels = self.labels
        t = self.cols[col][c if labels[c] == c else self.find(c)]
        return t if t is None or labels[t] == t else self.find(t)

    def define(self, c, col, d):
        """Set c.x = d and d.x^-1 = c for the letter x of column col."""
        self.cols[col][c] = d
        self.cols[col ^ 1][d] = c

    def unify(self, c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.labels[b] = a
            # a relator that closes at b closes at a once the rows merge
            for marks in self.marks:
                if marks[b]:
                    marks[a] = 1
            for col in self.cols:
                nb = col[b]
                if nb is None:
                    continue
                na = col[a]
                if na is None:
                    col[a] = nb
                else:
                    stack.append((na, nb))


def _col(letter):
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _scan_and_fill(table: _CosetTable, start, r: _Relator):
    """Scan r from the live coset start, defining cosets to fill the gap
    until the relator closes there.  f and b stay live (nothing merges
    before the scan returns), so only the entries read need resolving."""
    cols, labels, find = table.cols, table.labels, table.find
    word = r.cols
    f, i = start, 0
    b, j = start, len(word) - 1
    while True:
        while i <= j:
            t = cols[word[i]][f]
            if t is None:
                break
            f, i = t if labels[t] == t else find(t), i + 1
        if i > j:
            if f != b:
                table.unify(f, b)
            return
        while j >= i:
            t = cols[word[j] ^ 1][b]
            if t is None:
                break
            b, j = t if labels[t] == t else find(t), j - 1
        if j < i:
            if f != b:
                table.unify(f, b)
            return
        if i == j:
            # both slots are open: record the deduction
            table.define(f, word[i], b)
            return
        n = table.new()
        table.define(f, word[i], n)
        f, i = n, i + 1


def _mark_cycle(table: _CosetTable, start, r: _Relator):
    """Mark every coset on the root-cycle of `start`, where r has just
    closed: start.root^j.root^m = start.root^j for every j."""
    c = table.find(start)
    for _ in range(r.power):
        r.marks[c] = 1
        for col in r.root:
            c = table.get(c, col)


def _hlt(p: Presentation, bound):
    """The finished HLT coset table of p over the trivial subgroup, or None
    when it needs more than `bound` cosets."""
    table = _CosetTable(p, bound)
    try:
        table.new()
        alpha = 0
        labels = table.labels
        while alpha < len(labels):
            if labels[alpha] != alpha:
                alpha += 1
                continue
            for r in table.relators:
                if labels[alpha] != alpha:
                    break
                if r.marks is None:
                    _scan_and_fill(table, alpha, r)
                elif not r.marks[alpha]:
                    # a scan at a marked coset would define nothing and
                    # find no coincidence
                    _scan_and_fill(table, alpha, r)
                    _mark_cycle(table, alpha, r)
            if labels[alpha] == alpha:
                for col, entries in enumerate(table.cols):
                    if entries[alpha] is None:
                        table.define(alpha, col, table.new())
            alpha += 1
    except _Exceeded:
        return None
    return table


def _check_table(table: _CosetTable):
    """Number of live cosets of a finished table.  Raises AssertionError
    (also under python -O) unless every live coset has every column filled
    and c.w = c for every live coset c and relator w = root^m.  The latter
    walks each orbit of c -> c.root once: every orbit must be a cycle whose
    length divides m."""
    labels = table.labels
    live = [c for c in range(len(labels)) if labels[c] == c]
    for col in table.cols:
        for c in live:
            if col[c] is None:
                raise AssertionError("coset table closed with holes")
    for r in table.relators:
        seen = bytearray(len(labels))
        for start in live:
            if seen[start]:
                continue
            seen[start] = 1
            c, length = start, 0
            while True:
                for col in r.root:
                    c = table.get(c, col)
                length += 1
                if c == start:
                    break
                if length >= r.power:
                    raise AssertionError("relator fails to close on finished table")
                seen[c] = 1
            if r.power % length:
                raise AssertionError("relator fails to close on finished table")
    return len(live)


def coset_enumerate(p: Presentation, bound=10000):
    """Order of the presented group, or None when the coset table fails to
    close within `bound` cosets (the verdict is then unknown).

    HLT (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    ch. 5): scan every relator from each live coset in turn, defining cosets
    to fill the gaps, then fill the coset's empty columns.  Once a relator
    root^m closes at a coset, it closes on that coset's whole root-cycle,
    so it is not scanned there again: such a scan would define nothing and
    find no coincidence, and the table grows exactly as in plain HLT.  That
    keeps the power relator c3^n of the triple (2,2,n) linear in n.  The
    finished table is checked in linear time, also under python -O: every
    column is filled, and every cycle of c -> c.root has length dividing m."""
    if not p.generators:
        return 1
    table = _hlt(p, bound)
    return None if table is None else _check_table(table)
