"""The public names of the package: each resolves, and removed ones stay gone."""

import g2sum
import g2sum.building_blocks
import g2sum.catalog
import g2sum.cli
import g2sum.embedding
import g2sum.enumerator
import g2sum.lattice_core

MODULES = (
    g2sum,
    g2sum.building_blocks,
    g2sum.catalog,
    g2sum.cli,
    g2sum.embedding,
    g2sum.enumerator,
    g2sum.lattice_core,
)

REMOVED = (
    "find_isotropic_primitive",
    "NOT_FOUND_WITHIN_BOUND",
    "SPECIAL_EMBEDDING_RULES",
    "SpecialRule",
    "generic_record",
    "MODES",
    "rescale",
    "delta_invariant",
    "_RANK1_NAME",
    "UNVERIFIED",
    "GlueResult",
    "open_betti",
)

# Fields and properties deleted from the records that still exist.
REMOVED_ATTRIBUTES = {
    g2sum.enumerator.G2Record: ("n", "flags", "verified", "simply_connected"),
    g2sum.enumerator.PairClass: ("flags",),
    g2sum.building_blocks.BuildingBlock: ("simply_connected",),
    g2sum.embedding.MatchCertificate: ("rank_bound_b",),
}


def test_every_exported_name_resolves_once():
    assert len(g2sum.__all__) == len(set(g2sum.__all__))
    for name in g2sum.__all__:
        assert hasattr(g2sum, name), name


def test_removed_names_stay_removed():
    for module in MODULES:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(g2sum, "GENERIC") and not hasattr(g2sum.enumerator, "GENERIC")
    for name in ("without", "rank_one"):
        assert not hasattr(g2sum.catalog.FanoCatalog, name)
    assert hasattr(g2sum.lattice_core.IntLattice, "rescale")
    for cls, names in REMOVED_ATTRIBUTES.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
