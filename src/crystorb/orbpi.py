"""Orbifold fundamental-group utilities: presentation quotients by powers of
loops, the three-concurrent-lines presentation, the Platonic-triple
finiteness inequality, coset enumeration, and covering-data compatibility.

Coset enumeration is a semi-decision procedure: it reports a group order
only when the table closes within the coset bound, and Unknown (None)
otherwise; exhausting the bound never claims infiniteness."""

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


def three_lines_group(m1, m2, m3) -> Presentation:
    """The fundamental group of the plane minus three concurrent lines,
    marked with the given multiplicities: generators c0..c3, relators
    [c0, ci], c0 c3^-1 c2^-1 c1^-1, and ci^mi."""
    for m in (m1, m2, m3):
        if int(m) < 2:
            raise ValueError("multiplicities must be >= 2")
    relators = []
    for i in (2, 3, 4):
        relators.append((1, i, -1, -i))
    relators.append((1, -4, -3, -2))
    for i, m in zip((2, 3, 4), (m1, m2, m3)):
        relators.append((i,) * int(m))
    return Presentation.make(("c0", "c1", "c2", "c3"), relators)


def central_line_quotient(m1, m2, m3) -> Presentation:
    """The three-lines group modulo its central loop c0 (a von Dyck-type
    quotient used by the finiteness test)."""
    return three_lines_group(m1, m2, m3).with_relators([(1,)])


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
# orbifold coverings

@dataclass(frozen=True)
class CoveringData:
    """Branch data of a candidate orbifold covering: source divisors with
    multiplicities m_i, target divisors with multiplicities n_j, and for
    each source divisor the target index and local degree a_i."""

    source_multiplicities: tuple
    target_multiplicities: tuple
    assignment: tuple          # (target index, local degree) per source divisor

    @staticmethod
    def make(source_multiplicities, target_multiplicities, assignment):
        return CoveringData(
            tuple(int(m) for m in source_multiplicities),
            tuple(int(n) for n in target_multiplicities),
            tuple((int(j), int(a)) for j, a in assignment),
        )


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    violations: tuple       # source indices where n_j != a_i m_i
    unhit_targets: tuple    # target indices no source divisor maps to


def covering_compatible(c: CoveringData) -> CompatibilityResult:
    """Check n_j = a_i m_i for every source divisor and that every target
    divisor is hit."""
    if len(c.assignment) != len(c.source_multiplicities):
        raise ValueError("one assignment per source divisor required")
    violations = []
    hit = set()
    for i, ((j, a), m) in enumerate(zip(c.assignment, c.source_multiplicities)):
        if not 0 <= j < len(c.target_multiplicities):
            raise ValueError(f"assignment {i} targets a missing divisor")
        hit.add(j)
        if c.target_multiplicities[j] != a * m:
            violations.append(i)
    unhit = tuple(j for j in range(len(c.target_multiplicities)) if j not in hit)
    return CompatibilityResult(not violations and not unhit,
                               tuple(violations), unhit)
