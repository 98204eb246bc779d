"""Invariance checks run over the group's real generating set.

`MatrixGroup.generators` is the recorded generator list when it generates the
group and all elements otherwise, whereas `generator_indices` is empty for a
hand-built group and need not generate.  The invariance loop of
`hodge.sample_subspace`, and the generator action `hodge.tangent_dimension`
reads, must give the same answers on every way of building the same group.
"""

import pytest
from conftest import over_one_denominator

from crystorb import hodge
from crystorb.crystal import CrystGroup
from crystorb.groupcore import MatrixGroup, closure

SWAP = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]

S3_ON_Z4 = [  # S3 on two copies of the hexagonal lattice
    [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
]


def constructions(generators):
    """The same crystallographic group (zero translations) built by closure,
    by hand with no generators, and by hand with a list that does not
    generate."""
    closed = closure(generators)
    n, rank = closed.order(), closed.rank
    groups = {
        "closure": closed,
        "hand_built": MatrixGroup(rank, closed.elements, ()),
        "non_generating": MatrixGroup(rank, closed.elements, (n - 1,)),
    }
    zero = over_one_denominator([(0,) * rank] * n)
    return {name: CrystGroup(g, *zero) for name, g in groups.items()}


@pytest.mark.parametrize("generators", [[SWAP], S3_ON_Z4], ids=["swap", "s3"])
def test_sampler_and_tangent_agree_across_constructions(generators):
    built = constructions(generators)
    reference = built.pop("closure")
    types = hodge.hodge_types(hodge.is_even(reference))
    for t in types:
        B, action = hodge.sample_subspace(reference, t)
        dim = hodge.component_dimension(t)
        assert hodge.tangent_dimension(action) == dim
        for name, crys in built.items():
            assert hodge.sample_subspace(crys, t)[0] == B, name
            action = hodge._block_action(crys, B, crys.group.generators)
            assert hodge.tangent_dimension(action) == dim, name
