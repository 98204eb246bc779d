"""The inputs the suite shares: the 19 corpus documents, the 7 documents of
the benchmark's scaling family, and the crystallographic group a document
normalizes to.  Test modules import these by name (`from conftest import
...`); seed the two document sets with `family.seeded_documents` exactly as
each test did, since a seed's basis changes depend on which documents are
seeded together."""

import family

from crystorb.cli import parse_cryst_data
from crystorb.corpus import corpus_names, load_corpus
from crystorb.crystal import normalize_action


def corpus_documents():
    """The corpus documents by name."""
    return {name: load_corpus(name) for name in corpus_names()}


def family_documents():
    """The scaling-family documents by name."""
    return {name: doc for name, (doc, _) in family.scaling_family().items()}


def crystal_group(doc):
    """The crystallographic group of a CLI document, pure translations
    absorbed into the lattice."""
    return normalize_action(parse_cryst_data(doc)).group
