"""The transform-free `hnf` and the one-HNF `kernel_q` of `exactla` against
the routines they replaced.

`hnf` used to carry the unimodular U with U*A = H through every row
operation and return it as well, and `kernel_q` took the rows of U past the
rank of a first HNF of A^T and brought them to Hermite form with a second
`hnf`.  Both are kept below as oracles.  The Hermite form of a lattice is
unique, so the new H and the new kernel must equal the oracles' output, not
only span the same lattice: on seeded random matrices (rank-deficient, with
zero rows and with repeated rows), and on every direction basis and every
matrix handed to `hnf` that the orbifold descriptors of the corpus and the
scaling family meet, unseeded and at basis seeds 0-3.
"""

import random

import family
import pytest
from conftest import corpus_documents, crystal_group, family_documents, identity, mat_product

from crystorb import exactla, fieldlin, hodge, quotient
from crystorb.exactla import hnf, kernel_q


# ---------------------------------------------------------------------------
# oracles: the U-carrying Hermite form and the two-step kernel

def oracle_hnf(rows):
    """(H, U) with U unimodular and U*A = H, H the row Hermite form."""
    H = [list(r) for r in rows]
    n, m = len(H), len(H[0])
    U = [list(r) for r in identity(n)]
    pr = 0
    for pc in range(m):
        if pr >= n:
            break
        while True:
            nz = [i for i in range(pr, n) if H[i][pc] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][pc]), i))
            if i0 != pr:
                H[pr], H[i0] = H[i0], H[pr]
                U[pr], U[i0] = U[i0], U[pr]
            if H[pr][pc] < 0:
                H[pr] = [-x for x in H[pr]]
                U[pr] = [-x for x in U[pr]]
            p = H[pr][pc]
            done = True
            for i in range(pr + 1, n):
                if H[i][pc] != 0:
                    q = H[i][pc] // p
                    H[i] = [a - q * b for a, b in zip(H[i], H[pr])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[pr])]
                    if H[i][pc] != 0:
                        done = False
            if done:
                break
        if H[pr][pc] != 0:
            p = H[pr][pc]
            for i in range(pr):
                q = H[i][pc] // p
                if q != 0:
                    H[i] = [a - q * b for a, b in zip(H[i], H[pr])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[pr])]
            pr += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def oracle_kernel_q(rows, cols):
    """The rows of the HNF transform of rows^T past its rank, brought to
    Hermite form by a second HNF."""
    if not rows:
        return [tuple(r) for r in identity(cols)]
    H, U = oracle_hnf([list(c) for c in zip(*rows)])
    rank = sum(map(any, H))
    if rank == cols:
        return []
    return list(oracle_hnf(U[rank:])[0])


# ---------------------------------------------------------------------------
# inputs

def random_matrices(seed, count):
    """count matrices of each kind, up to 6 x 6: of a random rank (r = 0
    too), with zero rows put in, and with rows repeated."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(n, m))
        L = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        R = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        low_rank = [list(row) for row in mat_product(L, R)] if r else [[0] * m for _ in L]
        full = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        zeros = [row[:] for row in full]
        for _ in range(rng.randint(1, n)):
            zeros.insert(rng.randint(0, len(zeros)), [0] * m)
        repeated = [row[:] for row in full]
        for _ in range(rng.randint(1, n)):
            repeated.insert(rng.randint(0, len(repeated)), rng.choice(full)[:])
        out += [low_rank, zeros, repeated]
    return out


def descriptor_inputs(seed, monkeypatch):
    """(every matrix handed to `hnf`, every (rows, cols) handed to
    `kernel_q`) by the orbifold descriptors of the even corpus and scaling
    documents at basis seed `seed`."""
    docs = {**corpus_documents(), **family_documents()}
    if seed is not None:
        docs = family.seeded_documents(docs, seed)
    seen_hnf, seen_kernel = {}, {}
    real_hnf, real_kernel = exactla.hnf, exactla.kernel_q

    def recorded_hnf(rows):
        seen_hnf[tuple(map(tuple, rows))] = None
        return real_hnf(rows)

    def recorded_kernel(rows, cols):
        seen_kernel[tuple(map(tuple, rows)), cols] = None
        return real_kernel(rows, cols)

    monkeypatch.setattr(exactla, "hnf", recorded_hnf)
    monkeypatch.setattr(exactla, "kernel_q", recorded_kernel)
    for name, doc in sorted(docs.items()):
        crys = crystal_group(doc)
        ev = hodge.is_even(crys)
        if ev.even:
            quotient.orbifold_descriptor(crys, ev)
    monkeypatch.undo()
    return list(seen_hnf), list(seen_kernel)


# ---------------------------------------------------------------------------

def test_oracle_transform_is_unimodular():
    for A in random_matrices(1, 100):
        H, U = oracle_hnf(A)
        assert mat_product(U, A) == H
        assert abs(fieldlin.det(U)) == 1


def test_hnf_equals_the_oracle_on_random_matrices():
    for A in random_matrices(2, 600):
        assert hnf(A) == oracle_hnf(A)[0], A


def test_kernel_q_equals_the_oracle_on_random_matrices():
    for A in random_matrices(3, 600):
        assert kernel_q(A, len(A[0])) == oracle_kernel_q(A, len(A[0])), A
    for cols in range(1, 7):    # no rows: the whole lattice
        assert kernel_q([], cols) == oracle_kernel_q([], cols)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_descriptor_inputs_equal_the_oracles(seed, monkeypatch):
    matrices, kernels = descriptor_inputs(seed, monkeypatch)
    assert matrices and kernels
    assert any(not rows for rows, _ in kernels)     # a point's empty basis
    for A in matrices:
        assert hnf(A) == oracle_hnf(A)[0], A
    for rows, cols in kernels:
        assert kernel_q(rows, cols) == oracle_kernel_q(rows, cols), rows
