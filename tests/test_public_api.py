"""The public names of the package: each resolves, and removed ones stay gone."""

import ast
from pathlib import Path

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
    "standard_lattice",
    "_root_lattice",
    "_HYPERBOLIC",
    "_EXPR_ROOT",
    "_EXPR_RANK1",
    "mirror_partner",
    "_MODE_CHOICES",
    "_SPACES",
    "_EMB_CLAUSES",
    "_of_clause",
    "_CLAUSES",
    "nikulin_sufficient",
    "embeds_in_2e8_2h",
    "direct_sum",
)

# Fields and properties deleted from the records that still exist.
REMOVED_ATTRIBUTES = {
    g2sum.enumerator.G2Record: ("n", "flags", "verified", "simply_connected", "betti"),
    g2sum.enumerator.PairClass: ("flags",),
    g2sum.building_blocks.BuildingBlock: ("simply_connected", "fano"),
    g2sum.embedding.MatchCertificate: ("rank_bound_b", "has_cond_b"),
    g2sum.lattice_core.SmithDecomposition: ("diagonal", "invariant_factors"),
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


def test_every_name_the_benchmark_tracer_patches_resolves(monkeypatch):
    # perfbench/spans.py wraps names of g2sum.cli and g2sum.enumerator by
    # attribute; a renamed one would fail only the traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer()
    try:
        spans.install_cli(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_each_package_error_has_one_raising_module():
    # Bad catalog data is found only while loading, and only the lattice
    # engine raises its Gram-matrix error; misuse elsewhere is a ValueError.
    owners = {"CatalogError": "catalog.py", "LatticeError": "lattice_core.py"}
    raised = set()
    for path in Path(g2sum.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in owners:
                    raised.add((exc.id, path.name))
    assert raised == set(owners.items())


def test_package_source_holds_no_assert():
    # ``python -O`` strips ``assert``, so an identity the package checks
    # must raise explicitly to hold in every build.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(g2sum.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
