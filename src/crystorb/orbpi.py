"""Orbifold fundamental-group utilities: presentation quotients by powers of
loops, the von Dyck presentation of a triple, the Platonic-triple
finiteness inequality and coset enumeration.

Coset enumeration is a semi-decision procedure: it reports a group order
only when the table closes within the coset bound, and Unknown (None)
otherwise; exhausting the bound never claims infiniteness.  It is HLT,
minus the scans of a power relator root^m on root-cycles where it is known
to close, with the coincidence routine of Holt, Eick and O'Brien, which
keeps every table entry naming a live coset; neither changes the table
plain HLT builds.  Its finished table is checked in linear time by the
lengths of those cycles (see `coset_enumerate`)."""

from __future__ import annotations



def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Presentation:
    """Generators by name; relators as nonempty freely reduced words of
    signed 1-based generator indices, their letters checked by the caller."""

    def __init__(self, generators, relators):
        self.generators = generators
        self.relators = relators

    def __eq__(self, other):
        return type(other) is Presentation and vars(self) == vars(other)

    @staticmethod
    def make(generators, relators):
        reduced = (free_reduce(w) for w in relators)
        return Presentation(tuple(generators), tuple(w for w in reduced if w))


def orbifold_quotient(p: Presentation, loops, multiplicities) -> Presentation:
    """Append loop^m for each checked loop and multiplicity m >= 1, one per
    loop; a mark of multiplicity one imposes no relation and is forgotten."""
    extra = (loop * m for loop, m in zip(loops, multiplicities) if m > 1)
    return Presentation.make(p.generators, p.relators + tuple(extra))


def central_line_quotient(m1, m2, m3) -> Presentation:
    """The von Dyck group <c1, c2, c3 | c3^-1 c2^-1 c1^-1, c1^m1, c2^m2,
    c3^m3> that the finiteness test enumerates: the fundamental group of
    the plane minus three concurrent lines, marked with the checked
    multiplicities m_i >= 2, modulo its central loop."""
    relators = [(-3, -2, -1)] + [(i,) * m for i, m in zip((1, 2, 3), (m1, m2, m3))]
    return Presentation.make(("c1", "c2", "c3"), relators)


def platonic_check(m1, m2, m3) -> bool:
    """1/m1 + 1/m2 + 1/m3 > 1, exactly, for checked integers m_i >= 2; the
    solutions are (2,2,n) and (2,3,3), (2,3,4), (2,3,5) up to order."""
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
    """Cosets 0, 1, ... of the trivial subgroup of p: one list per column
    (2i for generator i + 1, 2i + 1 for its inverse; None while undefined),
    union-find labels for coincidences, and the relators with their marks.
    Columns and marks grow in chunks, doubling up to the bound.  Outside
    `unify`, every entry of a live coset names a live coset, and
    c.x = d exactly when d.x^-1 = c."""

    def __init__(self, p: Presentation, bound):
        self.cols = [[] for _ in range(2 * len(p.generators))]
        # each column with its inverse column, in column order
        self.pairs = [(col, self.cols[x ^ 1]) for x, col in enumerate(self.cols)]
        self.labels = []
        self.relators = [_Relator(w) for w in p.relators]
        self.marks = [r.marks for r in self.relators if r.marks is not None]
        self.bound = bound

    def new(self):
        c = len(self.labels)
        if c >= self.bound:
            raise _Exceeded
        self.labels.append(c)
        if c == len(self.cols[0]):
            extra = max(1, min(c, self.bound - c))
            for col in self.cols:
                col.extend([None] * extra)
            for marks in self.marks:
                marks.extend(bytes(extra))
        return c

    def find(self, c):
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def unify(self, c1, c2):
        """COINCIDENCE (Holt, Eick and O'Brien, section 5.1): merge c1 and
        c2 and every pair of cosets that merging forces, the least coset of
        each class staying live.  Each dead coset's row moves onto its live
        label, and every entry that named it is redefined through the
        inverse column.  A dead coset's marks pass to its live label when
        its row moves: a relator that closes at a coset closes at every
        coset merged with it."""
        labels, find = self.labels, self.find
        a, b = sorted((find(c1), find(c2)))
        if a == b:
            return
        labels[b] = a
        dead = [b]
        for g in dead:
            a = find(g)
            for marks in self.marks:
                if marks[g]:
                    marks[a] = 1
            for col, inv in self.pairs:
                d = col[g]
                if d is None:
                    continue
                inv[d] = None
                a = find(g)
                b = d if labels[d] == d else find(d)
                if col[a] is not None:
                    a, b = b, col[a]
                elif inv[b] is not None:
                    b = inv[b]
                else:
                    col[a], inv[b] = b, a
                    continue
                # the rows of a and b must merge
                a, b = find(a), find(b)
                if a != b:
                    if b < a:
                        a, b = b, a
                    labels[b] = a
                    dead.append(b)


def _col(letter):
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _hlt(p: Presentation, bound):
    """The finished HLT coset table of p over the trivial subgroup, or None
    when it needs more than `bound` cosets."""
    table = _CosetTable(p, bound)
    cols, pairs, labels, new, find, unify = (table.cols, table.pairs, table.labels,
                                             table.new, table.find, table.unify)
    # each relator's letters and root as the columns they read, and the
    # inverse columns its backward scan reads
    relators = [([cols[x] for x in r.cols], [cols[x ^ 1] for x in r.cols],
                 len(r.cols) - 1, [cols[x] for x in r.root], r.power, r.marks)
                for r in table.relators]
    try:
        new()
        alpha = 0
        while alpha < len(labels):
            for word, inverse, last, root, power, marks in relators:
                if labels[alpha] != alpha:
                    break
                if marks is not None and marks[alpha]:
                    # a scan at a marked coset would define nothing and
                    # find no coincidence
                    continue
                # scan from alpha, defining cosets to fill the gap until
                # the relator closes there; f and b stay live until then
                f, i, b, j = alpha, 0, alpha, last
                while True:
                    while i <= j:
                        t = word[i][f]
                        if t is None:
                            break
                        f, i = t, i + 1
                    while j >= i:
                        t = inverse[j][b]
                        if t is None:
                            break
                        b, j = t, j - 1
                    if j < i:
                        if f != b:
                            unify(f, b)
                        break
                    if i == j:
                        # both slots are open: record the deduction
                        word[i][f], inverse[i][b] = b, f
                        break
                    n = new()
                    word[i][f], inverse[i][n] = n, f
                    f, i = n, i + 1
                if marks is not None:
                    # root^m closes at alpha, so on its whole root-cycle
                    c = alpha if labels[alpha] == alpha else find(alpha)
                    for _ in range(power):
                        marks[c] = 1
                        for col in root:
                            c = col[c]
            if labels[alpha] == alpha:
                for col, inv in pairs:
                    if col[alpha] is None:
                        n = new()
                        col[alpha], inv[n] = n, alpha
            alpha += 1
    except _Exceeded:
        return None
    return table


def _check_table(table: _CosetTable):
    """Number of live cosets of a finished table.  Raises AssertionError
    (also under python -O) unless every column of every live coset names a
    live coset, d.x^-1 = c when c.x = d, and c.w = c for every live coset c
    and relator w = root^m.  The last walks each orbit of c -> c.root once:
    every orbit must be a cycle whose length divides m."""
    labels, cols = table.labels, table.cols
    live = [c for c in range(len(labels)) if labels[c] == c]
    for col, inverse in table.pairs:
        for c in live:
            t = col[c]
            if t is None:
                raise AssertionError("coset table closed with holes")
            if labels[t] != t:
                raise AssertionError("coset table names a dead coset")
            if inverse[t] != c:
                raise AssertionError("inverse column does not invert its column")
    for r in table.relators:
        root = [cols[x] for x in r.root]
        seen = bytearray(len(labels))
        for start in live:
            if seen[start]:
                continue
            seen[start] = 1
            c, length = start, 0
            while True:
                for col in root:
                    c = col[c]
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
    to fill the gaps, then fill the coset's empty columns.  A coincidence
    runs their COINCIDENCE routine (section 5.1): each dead coset's row
    moves onto its live label, the least coset of its class, and every
    entry that named it is redefined through the inverse column.  So
    between coincidences every entry of a live coset names a live coset,
    and scans read the table with no lookup of labels.  Once a relator
    root^m closes at a coset, it closes on that coset's whole root-cycle,
    so it is not scanned there again: such a scan would define nothing and
    find no coincidence.  That keeps the power relator c3^n of the triple
    (2,2,n) linear in n.  Neither changes the table HLT builds: the same
    cosets are defined in the same order.  The finished table is checked in
    linear time, also under python -O: every column is filled and names a
    live coset, the x^-1 column inverts the x column, and every cycle of
    c -> c.root has length dividing m."""
    if not p.generators:
        return 1
    table = _hlt(p, bound)
    return None if table is None else _check_table(table)
