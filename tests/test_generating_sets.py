"""Invariance checks run over the group's real generating set.

`MatrixGroup.generators` is the recorded generator list when it generates the
group and all elements otherwise, whereas `generator_indices` is empty for a
subgroup or a hand-built group and need not generate.  The J check of
`quotient.classify_action` and the invariance loops of `hodge.sample_subspace`
and `hodge.tangent_dimension` must give the same answers on every way of
building the same group.
"""

from fractions import Fraction

import pytest

from crystorb import hodge
from crystorb.crystal import CrystGroup
from crystorb.groupcore import MatrixGroup, closure
from crystorb.quotient import classify_action

F = Fraction

SWAP = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
# +90 degrees on the first plane and -90 on the second: J^2 = -I, and the
# swap exchanges the two rotations, so J does not commute with it
J_CROSSED = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
# the same rotation on both planes commutes with the swap
J_PARALLEL = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

S3_ON_Z4 = [  # S3 on two copies of the hexagonal lattice
    [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
]


def constructions(generators):
    """The same crystallographic group (zero translations) built by closure,
    by hand with no generators, by hand with a list that does not generate,
    and as the subgroup of all of its elements."""
    closed = closure(generators)
    n, rank = closed.order(), closed.rank
    groups = {
        "closure": closed,
        "hand_built": MatrixGroup(rank, closed.elements, ()),
        "non_generating": MatrixGroup(rank, closed.elements, (n - 1,)),
        "subgroup": closed.subgroup(range(n)),
    }
    return {name: CrystGroup(rank, g, [(0,) * rank] * n) for name, g in groups.items()}


def exact_structure(rows):
    return hodge.ComplexStructure(
        "exact", tuple(tuple(F(x) for x in r) for r in rows), 128, F(0), F(0))


@pytest.mark.parametrize("name", ["closure", "hand_built", "non_generating", "subgroup"])
def test_classify_action_rejects_noncommuting_j(name):
    crys = constructions([SWAP])[name]
    with pytest.raises(ValueError, match="does not commute"):
        classify_action(crys, exact_structure(J_CROSSED))
    assert classify_action(crys, exact_structure(J_PARALLEL)) == \
        classify_action(crys, None)


@pytest.mark.parametrize("generators", [[SWAP], S3_ON_Z4], ids=["swap", "s3"])
def test_sampler_and_tangent_agree_across_constructions(generators):
    built = constructions(generators)
    reference = built.pop("closure")
    types = hodge.hodge_types(reference)
    for t in types:
        B = hodge.sample_subspace(reference, t)
        dim = hodge.component_dimension(t, reference)
        assert hodge.tangent_dimension(reference, B) == dim
        for name, crys in built.items():
            assert hodge.sample_subspace(crys, t) == B, name
            assert hodge.tangent_dimension(crys, B) == dim, name
