"""Invariance checks run over the group's generating set, however it was given.

Every `MatrixGroup` comes from `closure`, and its `generators` are the images
of the list it closed, so one group may carry a lean, a redundant or an
exhaustive generating set.  The invariance loop of `hodge.sample_subspace`,
and the generator action `hodge.tangent_dimension` reads, must give the same
answers on each.  Closures of different lists may order the elements
differently, so the constructions are compared on basis-invariant results:
for every Hodge type, the tangent dimension at the sampled point against the
dimension of its component.
"""

import pytest
from conftest import over_one_denominator

from crystorb import hodge
from crystorb.crystal import CrystGroup
from crystorb.groupcore import closure

SWAP = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]

S3_ON_Z4 = [  # S3 on two copies of the hexagonal lattice
    [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
]


def constructions(generators):
    """The same crystallographic group (zero translations) closed from the
    given generators, from them plus a redundant last element, and from all
    of its elements."""
    closed = closure(generators)
    groups = {
        "closure": closed,
        "redundant": closure(generators + [closed.elements[-1]]),
        "all_elements": closure(closed.elements),
    }
    return {name: CrystGroup(g, *over_one_denominator([(0,) * g.rank] * g.order()))
            for name, g in groups.items()}


def tangent_profile(crys):
    """(component dimension, tangent dimension at the sample) per Hodge type,
    sorted, and the B sampled for each type in type order."""
    profile, samples = [], []
    for t in hodge.hodge_types(hodge.is_even(crys)):
        B, action = hodge.sample_subspace(crys, t)
        profile.append((hodge.component_dimension(t), hodge.tangent_dimension(action)))
        samples.append(B)
    return sorted(profile), samples


@pytest.mark.parametrize("generators", [[SWAP], S3_ON_Z4], ids=["swap", "s3"])
def test_sampler_and_tangent_agree_across_constructions(generators):
    built = constructions(generators)
    reference = built.pop("closure")
    profile, samples = tangent_profile(reference)
    assert all(dim == tangent for dim, tangent in profile)
    for name, crys in built.items():
        assert len(crys.group.generators) > len(reference.group.generators), name
        other, other_samples = tangent_profile(crys)
        assert other == profile, name
        if crys.group.elements == reference.group.elements:
            assert other_samples == samples, name
