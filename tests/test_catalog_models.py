"""Cross-verification of the catalog against the lattice engine.

Every triple row carries a lattice model in its source column.  Parsing
that model and recomputing (rank, signature, discriminant) from the Gram
matrix checks the catalog and the engine against each other — the two
routes are independent, so a transcription slip on either side fails here.
The parsed sum takes its signature and determinant from its summands, so
both are also read from a fresh lattice on the whole Gram matrix, and the
determinant from an independent elimination.
"""

import pytest

from g2sum.lattice_core import IntLattice, Signature, parse_lattice_expr
from test_lattice_properties import det_exact


def _model_cases():
    # imported lazily so collection errors point at the loader, not here
    from g2sum.catalog import load_nikulin

    return [pytest.param(t, id=f"{t.r},{t.a},{t.delta}") for t in load_nikulin().triples]


@pytest.mark.parametrize("triple", _model_cases())
def test_source_model_realizes_invariants(triple):
    lat = parse_lattice_expr(triple.source)
    assert lat.rank == triple.r
    assert lat.is_even()
    assert lat.signature() == Signature(1, triple.r - 1)
    # the sum's signature and determinant come from its parts; the whole
    # Gram and an independent elimination must agree
    whole = IntLattice(lat.gram)
    assert whole.signature() == Signature(1, triple.r - 1)
    assert lat.determinant() == whole.determinant() == det_exact(lat.gram)
    disc = lat.discriminant()
    assert disc.is_2_elementary
    assert disc.l == triple.a
    assert disc.delta == triple.delta


def test_models_cover_all_75(nikulin):
    assert len({t.key for t in nikulin.triples}) == 75
    assert all(t.source for t in nikulin.triples)
