"""Exact integer-lattice arithmetic and Betti-number enumeration for
twisted-connected-sum 7-manifolds.

A public name is imported from its module on first access (PEP 562), so
``import g2sum`` loads no submodule and ``from g2sum import IntLattice``
loads the lattice engine alone.
"""

__version__ = "0.1.0"

# Each public name, in ``__all__`` order, and the module that defines it.
_EXPORTS = {
    "BOTH": "embedding",
    "BuildingBlock": "building_blocks",
    "CatalogError": "catalog",
    "COND_A": "embedding",
    "COND_B": "embedding",
    "DiscriminantInfo": "lattice_core",
    "EMB_A": "enumerator",
    "EMB_B": "enumerator",
    "EMB_C": "enumerator",
    "EmbeddingVerdict": "embedding",
    "EulerCheck": "building_blocks",
    "FanoCatalog": "catalog",
    "FanoFamily": "catalog",
    "FixedLocus": "catalog",
    "G2Record": "enumerator",
    "INCONCLUSIVE": "embedding",
    "IntLattice": "lattice_core",
    "JoyceCatalog": "catalog",
    "JoyceComparison": "enumerator",
    "LARGE_RANK": "enumerator",
    "LatticeError": "lattice_core",
    "MatchCertificate": "embedding",
    "MIRROR": "enumerator",
    "NikulinCatalog": "catalog",
    "NikulinTriple": "catalog",
    "NONE": "embedding",
    "PairCounts": "enumerator",
    "SEQ": "enumerator",
    "Signature": "lattice_core",
    "SmithDecomposition": "lattice_core",
    "SUFFICIENT": "embedding",
    "SUFFICIENT_UNIQUE": "embedding",
    "compare_joyce": "enumerator",
    "count_matched_pairs": "enumerator",
    "default_data_dir": "catalog",
    "distinct_betti": "enumerator",
    "enumerate_emb": "enumerator",
    "enumerate_large_rank": "enumerator",
    "enumerate_mirror": "enumerator",
    "enumerate_seq": "enumerator",
    "euler_crosscheck": "building_blocks",
    "fano_block": "building_blocks",
    "fixed_locus": "catalog",
    "glue_betti": "enumerator",
    "involution_block": "building_blocks",
    "load_fano": "catalog",
    "load_joyce": "catalog",
    "load_nikulin": "catalog",
    "matching_condition": "embedding",
    "mirror_pairs": "catalog",
    "parse_lattice_expr": "lattice_core",
    "quartic_blowup_block": "building_blocks",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule in this namespace
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
