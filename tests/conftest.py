"""Shared fixtures: the packaged catalogs and the full matched-pair run.

Everything here is session-scoped; the catalogs are immutable and the
enumeration is deterministic, so tests may share them freely.
"""

import pytest

from g2sum.catalog import FanoCatalog, load_fano, load_nikulin
from g2sum.enumerator import enumerate_emb


@pytest.fixture(scope="session")
def nikulin():
    return load_nikulin()


@pytest.fixture(scope="session")
def fano():
    return load_fano()


@pytest.fixture(scope="session")
def fano_104(fano):
    """The Fano catalog without the family added in the 2003 erratum."""
    families = tuple(f for f in fano if f.id != "4.13")
    assert len(families) == 104
    return FanoCatalog(families, fano.complete_rank_1)


@pytest.fixture(scope="session")
def fano_rank_one(fano):
    """The Fano families with b2 = 1."""
    return tuple(f for f in fano if f.b2 == 1)


@pytest.fixture(scope="session")
def emb_records(fano, nikulin):
    return enumerate_emb(fano, nikulin)


@pytest.fixture(scope="session")
def emb_records_104(fano_104, nikulin):
    return enumerate_emb(fano_104, nikulin)
