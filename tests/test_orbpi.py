import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystorb import orbpi
from crystorb.orbpi import (
    Presentation,
    central_line_quotient,
    coset_enumerate,
    free_reduce,
    orbifold_quotient,
    platonic_check,
)


class TestPresentation:
    def test_free_reduction(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)
        p = Presentation.make(("a", "b"), [(1, 2, -2, 1)])
        assert p.relators == ((1, 1),)

    def test_trivial_relators_dropped(self):
        p = Presentation.make(("a",), [(1, -1)])
        assert p.relators == ()


class TestOrbifoldQuotient:
    def test_multiplicity_one_is_identity(self):
        p = Presentation.make(("a", "b"), [(1, 2)])
        q = orbifold_quotient(p, [(1,), (2,)], [1, 1])
        assert q == p

    def test_power_relator(self):
        p = Presentation.make(("a",), [])
        q = orbifold_quotient(p, [(1,)], [3])
        assert q.relators == ((1, 1, 1),)
        assert coset_enumerate(q) == 3


class TestThreeLines:
    def test_generator_and_relator_count(self):
        # von Dyck: c1 c2 c3 = 1 first, then the powers in triple order
        p = central_line_quotient(2, 3, 4)
        assert p.generators == ("c1", "c2", "c3")
        assert p.relators == ((-3, -2, -1), (1, 1), (2, 2, 2), (3, 3, 3, 3))

    def test_tetrahedral_quotient(self):
        # von Dyck group of (2,3,3) has order 12
        assert coset_enumerate(central_line_quotient(2, 3, 3)) == 12

    def test_icosahedral_quotient(self):
        assert coset_enumerate(central_line_quotient(2, 3, 5)) == 60

    def test_octahedral_quotient(self):
        assert coset_enumerate(central_line_quotient(2, 3, 4)) == 24

    def test_dihedral_family(self):
        # (2,2,n) gives the dihedral group of order 2n
        for n in (2, 5, 17):
            assert coset_enumerate(central_line_quotient(2, 2, n)) == 2 * n

    def test_euclidean_triple_unknown(self):
        assert coset_enumerate(central_line_quotient(3, 3, 3), bound=10000) is None


class TestPlatonic:
    def test_known_triples(self):
        assert platonic_check(2, 3, 5)
        assert platonic_check(2, 2, 17)
        assert platonic_check(2, 3, 3)
        assert platonic_check(2, 3, 4)

    def test_boundary_and_beyond(self):
        assert not platonic_check(2, 3, 6)   # sum exactly 1
        assert not platonic_check(3, 3, 3)
        assert not platonic_check(2, 4, 4)
        assert not platonic_check(4, 4, 5)

    def test_classification_small(self):
        hits = sorted((a, b, c)
                      for a in range(2, 13) for b in range(a, 13) for c in range(b, 13)
                      if platonic_check(a, b, c))
        expected = sorted([(2, 2, n) for n in range(2, 13)] +
                          [(2, 3, 3), (2, 3, 4), (2, 3, 5)])
        assert hits == expected


class TestCosetEnumeration:
    def test_cyclic(self):
        p = Presentation.make(("a",), [(1, 1, 1)])
        assert coset_enumerate(p) == 3

    def test_trivial_presentation(self):
        p = Presentation.make(("a",), [(1,)])
        assert coset_enumerate(p) == 1

    def test_s3(self):
        p = Presentation.make(("a", "b"), [(1, 1), (2, 2, 2), (1, 2) * 2])
        assert coset_enumerate(p) == 6

    def test_quaternion(self):
        # <a,b | a^4, a^2 b^-2, b^-1 a b a>
        p = Presentation.make(("a", "b"),
                              [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)])
        assert coset_enumerate(p) == 8

    def test_free_group_unknown(self):
        p = Presentation.make(("a", "b"), [])
        assert coset_enumerate(p, bound=100) is None

    def test_finite_beyond_bound_unknown(self):
        p = Presentation.make(("a",), [(1,) * 7])
        assert coset_enumerate(p, bound=3) is None

    def test_no_generators(self):
        assert coset_enumerate(Presentation.make((), [])) == 1


class TestFinitenessMatchesInequality:
    def test_desk_scale_biconditional(self):
        for a in range(2, 7):
            for b in range(a, 7):
                for c in range(b, 7):
                    order = coset_enumerate(central_line_quotient(a, b, c), bound=10000)
                    assert (order is not None) == platonic_check(a, b, c), (a, b, c)


def finished_table():
    """The closed table of <a | a^6>: one 6-cycle of a."""
    table = orbpi._hlt(Presentation.make(("a",), [(1,) * 6]), 100)
    assert orbpi._check_table(table) == 6
    return table


def redirect_entry(table):
    """Point 0.a^5.a at 0.a^3 instead of 0: a is no longer a permutation,
    and the walk from 0 never comes back."""
    a = table.cols[0]
    a3 = a[a[a[0]]]
    a[a[a[a3]]] = a3


def split_cycle(table):
    """Keep a a permutation but split its 6-cycle into cycles of lengths 4
    and 2 (0.a becomes 0.a^3, and 0.a^2.a becomes 0.a)."""
    a, a_inv = table.cols[0], table.cols[1]
    a1 = a[0]
    a2 = a[a1]
    a3 = a[a2]
    a[0], a_inv[a3] = a3, 0
    a[a2], a_inv[a1] = a1, a2


def open_hole(table):
    table.cols[1][5] = None


def break_inverse(table):
    """Point 0.a^-1 at 3 while 3.a is 4: column a is still the 6-cycle,
    and no walk of a^6 reads column a^-1."""
    table.cols[1][0] = 3


def name_dead_coset(table):
    """Declare coset 5 dead, merged into 0, while 4.a and 0.a^-1 still name
    it: walked through its row the a-cycle of 0 still closes after six
    steps, but only five cosets are live."""
    table.labels[5] = 0


class TestTableCheck:
    @pytest.mark.parametrize("damage", [redirect_entry, split_cycle, open_hole,
                                        break_inverse, name_dead_coset])
    def test_damaged_table_fails(self, damage):
        table = finished_table()
        damage(table)
        with pytest.raises(AssertionError):
            orbpi._check_table(table)

    def test_damaged_table_fails_under_optimize(self):
        code = ("import test_orbpi, sys\n"
                "from crystorb import orbpi\n"
                "t = test_orbpi.finished_table()\n"
                "test_orbpi.split_cycle(t)\n"
                "try:\n"
                "    orbpi._check_table(t)\n"
                "except AssertionError:\n"
                "    print(sys.flags.optimize, 'raised')\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["1", "raised"]
