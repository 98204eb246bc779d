"""The integer orthogonality check of character tables against an oracle.

`_verify_orthogonality` checks both orthogonality relations on the integer
coordinates of the character values in Z[zeta_e].  The oracle below is the
direct check in Cyclo arithmetic.  Both accept every real table; the integer
check rejects each kind of corrupted table, and the oracle rejects those that
break orthogonality.
"""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus
from crystorb.groupcore import _verify_orthogonality, character_table, closure


def oracle_verify_orthogonality(table):
    """Row and column orthogonality in Cyclo arithmetic."""
    field = table.field
    k = len(table.classes)
    n = table.group.order()
    for a, chi_a in enumerate(table.characters):
        for b, chi_b in enumerate(table.characters):
            ip = table.inner_product(chi_a, chi_b)
            if ip != field(1 if a == b else 0):
                raise ArithmeticError("row orthogonality failed")
    for i in range(k):
        for j in range(k):
            total = field(0)
            for chi in table.characters:
                total = total + chi.values[i] * chi.values[j].conjugate()
            want = field(Fraction(n, table.classes[i].size) if i == j else 0)
            if total != want:
                raise ArithmeticError("column orthogonality failed")


def rejects(check, table):
    try:
        check(table)
    except ArithmeticError:
        return True
    return False


def perm(images):
    """Permutation matrix sending e_i to e_images[i]."""
    n = len(images)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(images):
        m[j][i] = 1
    return m


def doubled(m):
    n = len(m)
    return [row + [0] * n for row in m] + [[0] * n + row for row in m]


INLINE = {
    # S4 permutations on Z^4 + Z^4, |G| = 24
    "s4double_rank8": [doubled(perm([1, 0, 2, 3])), doubled(perm([1, 2, 3, 0]))],
    # B3 signed permutations acting diagonally on Z^3 + Z^3, |G| = 48
    "b3diag_rank6": [doubled(perm([1, 0, 2])), doubled(perm([1, 2, 0])),
                     doubled([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])],
}


def point_group(name):
    if name in INLINE:
        return closure(INLINE[name])
    group, _ = cli._build_group(cli.parse_cryst_data(load_corpus(name)), 512)
    return group.group


def with_value(table, a, l, value):
    chars = list(table.characters)
    values = list(chars[a].values)
    values[l] = value
    chars[a] = replace(chars[a], values=tuple(values))
    return replace(table, characters=tuple(chars))


def swapped_values(table):
    """Swap two different values at non-identity classes in one row."""
    k = len(table.classes)
    for a, chi in enumerate(table.characters):
        for i in range(1, k):
            for j in range(i + 1, k):
                if chi.values[i] != chi.values[j]:
                    mutant = with_value(table, a, i, chi.values[j])
                    return with_value(mutant, a, j, chi.values[i])
    return None


@pytest.mark.parametrize("name", corpus_names() + sorted(INLINE))
def test_integer_check_agrees_with_oracle(name):
    table = character_table(point_group(name))
    _verify_orthogonality(table)
    oracle_verify_orthogonality(table)

    # a non-integral coordinate: never a character value
    last = len(table.classes) - 1
    off = table.characters[-1].values[last] + Fraction(1, 2)
    with pytest.raises(ArithmeticError, match="algebraic integer"):
        _verify_orthogonality(with_value(table, len(table.characters) - 1, last, off))

    if last == 0:
        return
    # the trivial character's 1 at the last class becomes zeta_e, another
    # root of unity; rows b != 0 pin row 0 down to a multiple of itself
    assert all(v == 1 for v in table.characters[0].values)
    mutant = with_value(table, 0, last, table.field.zeta(1))
    assert rejects(_verify_orthogonality, mutant)
    assert rejects(oracle_verify_orthogonality, mutant)

    mutant = swapped_values(table)
    if mutant is not None:
        assert rejects(_verify_orthogonality, mutant)
        assert rejects(oracle_verify_orthogonality, mutant)


@pytest.mark.parametrize("name", corpus_names() + sorted(INLINE))
def test_swap_mutants_exist(name):
    # with k >= 3 two non-identity columns differ, as columns are independent
    table = character_table(point_group(name))
    assert (swapped_values(table) is None) == (len(table.classes) <= 2)


FORGED = """
import sys
from dataclasses import replace
from crystorb.groupcore import character_table, closure, real_isotypic_dimensions

assert False, "assert statements must be off"
group = closure([[[-1]]])
table = character_table(group)
sign = table.characters[1]
# the sign character of C2 passed off as quaternionic: it occurs once in the
# rank-1 lattice, and a quaternionic constituent must occur evenly
forged = replace(table, characters=(table.characters[0], replace(sign, fs_indicator=-1)))
try:
    real_isotypic_dimensions(group, forged)
except ArithmeticError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_table_checks_survive_optimize():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-O", "-c", FORGED], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "quaternionic" in run.stdout
