"""Front-end fuzz: every command on generated documents exits 0 (a report)
or 1 (bad input, located by its JSON path or flag), never 2 (an internal
failure).

Three kinds of document: crystal-shaped ones (rank <= 4, linear entries in
{-1, 0, 1} and now and then a non-integer, small rational translations,
optional omega and cocycle, sizes now and then off by one),
platonic triples and presentations, and arbitrary JSON.  Every generated
crystal or platonic document carries an `options.bound` (at most 64 for
groups, 200 for coset tables), so each run closes or gives up quickly."""

import pytest
from test_golden import run_document

from crystorb import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)

RATIONALS = st.integers(-2, 2) | st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 4))


def near(draw, n):
    """n, now and then n - 1 or n + 1, to reach the shape checks."""
    return n + draw(st.sampled_from((0,) * 8 + (-1, 1)))


@st.composite
def crystal_documents(draw):
    rank = draw(st.integers(1, 4))
    generators = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            # a signed permutation: invertible and of finite order
            images = draw(st.permutations(range(rank)))
            linear = [[draw(st.sampled_from((1, -1))) * (j == images[i])
                       for j in range(rank)] for i in range(rank)]
        else:
            # now and then an entry that is not a JSON integer
            entries = st.sampled_from((-1, 0, 1) * 10 + (True, "1", 0.5))
            linear = [[draw(entries) for _ in range(rank)] for _ in range(rank)]
        g = {"linear": linear}
        if draw(st.booleans()):
            g["translation"] = [draw(RATIONALS) for _ in range(near(draw, rank))]
        generators.append(g)
    doc = {"rank": near(draw, rank), "generators": generators}
    if draw(st.booleans()):
        n = draw(st.integers(1, 2))
        doc["omega"] = [[[draw(RATIONALS), draw(RATIONALS)] for _ in range(n)]
                        for _ in range(near(draw, 2 * n))]
    if draw(st.booleans()):
        doc["cocycle"] = [[draw(st.integers(0, 7)), draw(st.integers(0, 7)),
                           [draw(st.integers(-1, 1)) for _ in range(near(draw, rank))]]
                          for _ in range(draw(st.integers(0, 4)))]
    doc["options"] = draw(st.fixed_dictionaries(
        {"bound": st.integers(1, 64)},
        optional={"precision": st.integers(60, 200)}))
    return doc


@st.composite
def platonic_documents(draw):
    if draw(st.booleans()):
        doc = {"triple": [draw(st.integers(2, 9) if draw(st.integers(0, 9)) else
                               st.integers(-1, 1)) for _ in range(near(draw, 3))]}
    else:
        gens = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
        # letters are signed generator indices; 0 and the next index are out of range
        words = st.lists(st.integers(-len(gens), len(gens)).filter(bool)
                         | st.sampled_from((0, len(gens) + 1)), max_size=8)
        doc = {"presentation": {"generators": gens,
                                "relators": draw(st.lists(words, max_size=4))}}
        if draw(st.booleans()):
            loops = draw(st.lists(words, max_size=3))
            doc["loops"] = loops
            doc["multiplicities"] = [draw(st.integers(-1, 6))
                                     for _ in range(near(draw, len(loops)))]
    doc["options"] = {"bound": draw(st.integers(1, 200))}
    return doc


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)


@pytest.mark.parametrize("documents", [crystal_documents(), platonic_documents(), JUNK],
                         ids=["crystal", "platonic", "junk"])
def test_no_document_exits_two(documents):
    @SETTINGS
    @hypothesis.given(documents, st.sampled_from(("json", "text")))
    def check(doc, output_format):
        for command in cli.COMMANDS:
            code, _, err = run_document(doc, command, output_format)
            assert code in (0, 1), (command, doc, err)
            # exit 1 is bad input only, and names its JSON path or flag
            assert code == 0 or err.startswith(("error: input", "error: --")), \
                (command, doc, err)

    check()
