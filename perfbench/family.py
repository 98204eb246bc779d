"""Generated inputs: the scaling family and the seeded basis change.

Every member is given by explicit generator matrices.  A workload seed picks
a small unimodular basis change P (det P = 1) per group; a generator
(g, t) becomes (P^-1 g P, P^-1 t).  Group order, evenness, torsion, the
classification and all other basis-invariant verdicts stay the same, while
the entries the program computes with change.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _perm(images, n):
    """Permutation matrix sending e_i to e_images[i]."""
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(images):
        m[j][i] = 1
    return m


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _identity(n):
    return _diag([1] * n)


def _block(*blocks):
    """Block-diagonal matrix."""
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at:at + len(row)] = row
        at += len(b)
    return m


R6 = [[1, -1], [1, 0]]      # order 6 rotation of the hexagonal lattice
R3 = [[0, -1], [1, -1]]     # order 3 rotation of the hexagonal lattice


def _block_perm(images, size):
    """Permute blocks of the given size: block i goes to block images[i]."""
    return _perm([images[i // size] * size + i % size
                  for i in range(size * len(images))], size * len(images))


def _gen(linear, translation=None):
    rank = len(linear)
    return {"linear": linear,
            "translation": [str(Fraction(x)) for x in (translation or [0] * rank)]}


def scaling_family():
    """name -> (CLI document, commands run on it)."""
    b3 = [_perm([1, 0, 2], 3), _perm([1, 2, 0], 3), _diag([-1, 1, 1])]
    s4 = [_perm([1, 0, 2, 3], 4), _perm([1, 2, 3, 0], 4)]
    half = Fraction(1, 2)
    members = {
        # B4 signed permutations, |G| = 384
        "b4_rank4": (4, [_gen(_perm([1, 0, 2, 3], 4)),
                         _gen(_perm([1, 2, 3, 0], 4)),
                         _gen(_diag([-1, 1, 1, 1]))],
                     ("verify",)),
        # S5 permutations plus the sign character, |G| = 120, exponent 60
        "s5_rank6": (6, [_gen(_block(_perm([1, 0, 2, 3, 4], 5), [[-1]])),
                         _gen(_block(_perm([1, 2, 3, 4, 0], 5), [[1]]))],
                     ("even",)),
        # C6 x C6 on two hexagonal planes, |G| = 36
        "c6c6_rank4": (4, [_gen(_block(R6, _identity(2))),
                           _gen(_block(_identity(2), R6))],
                       ("even",)),
        # C6 wr C2 with translation (e1 + e3)/2 on the swap, |G| = 72
        "c6wr_rank4": (4, [_gen(_block(R6, _identity(2))),
                           _gen(_block_perm([1, 0], 2), [half, 0, half, 0])],
                       ("realize", "jstruct")),
        # B3 acting diagonally on Z^3 + Z^3, |G| = 48
        "b3diag_rank6": (6, [_gen(_block(g, g)) for g in b3], ("action",)),
        # C3 wr C3 on three hexagonal planes, |G| = 81
        "c3wr_rank6": (6, [_gen(_block(R3, _identity(2), _identity(2))),
                           _gen(_block_perm([1, 2, 0], 2))],
                       ("teich",)),
        # S4 permutations, doubled, |G| = 24
        "s4double_rank8": (8, [_gen(_block(g, g)) for g in s4], ("action", "teich")),
    }
    return {name: ({"rank": rank, "generators": gens}, commands)
            for name, (rank, gens, commands) in members.items()}


# ---------------------------------------------------------------------------
# basis change

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def basis_change(rank, rng):
    """A product of two elementary transvections e_i += s e_j, s = +-1, and
    its inverse.  Both are integral with determinant 1."""
    p = _identity(rank)
    p_inv = _identity(rank)
    for _ in range(2):
        i, j = rng.sample(range(rank), 2)
        s = rng.choice((1, -1))
        t = _identity(rank)
        t[i][j] = s
        t_inv = _identity(rank)
        t_inv[i][j] = -s
        p = _matmul(p, t)
        p_inv = _matmul(t_inv, p_inv)
    return p, p_inv


def change_basis(doc, p, p_inv):
    """The document with every generator conjugated by P."""
    out = dict(doc)
    gens = []
    for g in doc.get("generators", []):
        lin = _matmul(_matmul(p_inv, g["linear"]), p)
        t = [Fraction(x) for x in g.get("translation", ["0"] * len(lin))]
        t = [sum(a * b for a, b in zip(row, t)) for row in p_inv]
        gens.append({"linear": lin, "translation": [str(x) for x in t]})
    out["generators"] = gens
    return out


def seeded_documents(named_docs, seed):
    """Apply one seeded basis change per group document, in name order so
    the same seed gives the same inputs."""
    rng = random.Random(seed)
    out = {}
    for name in sorted(named_docs):
        doc = named_docs[name]
        out[name] = change_basis(doc, *basis_change(doc["rank"], rng))
    return out
