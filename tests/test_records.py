"""Immutability, equality and hashing of the records.

Each slots-record case builds two records that differ only in fields
excluded from equality (or not at all), and one that differs in a compared
field.  Each named-tuple case pins the fields, defaults, repr, pickling and
properties of one class.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import g2sum
import g2sum.building_blocks
import g2sum.catalog
import g2sum.embedding
import g2sum.enumerator
import g2sum.lattice_core
from g2sum.building_blocks import BuildingBlock, EulerCheck, involution_block
from g2sum.catalog import (
    FanoCatalog,
    FanoFamily,
    FixedLocus,
    JoyceCatalog,
    NikulinCatalog,
    NikulinTriple,
)
from g2sum.embedding import BOTH, INCONCLUSIVE, SUFFICIENT, EmbeddingVerdict, MatchCertificate
from g2sum.enumerator import (
    EMB_C,
    G2Record,
    JoyceComparison,
    PairClass,
    PairCounts,
    _Entry,
)
from g2sum.lattice_core import DiscriminantInfo, IntLattice, Signature, SmithDecomposition

P3 = FanoFamily("P3", 1, 0, 64, source="projective space")
T_200 = NikulinTriple(2, 0, 0, source="U")


def _block(triple=None, d=4):
    return BuildingBlock("INVOLUTION", "involution(2,0,0)", 7, 40, d, 2, 0, triple)


def _lattice_with_caches_filled():
    lat = IntLattice([[2, 1], [1, -4]])
    lat.smith_normal_form()
    lat.signature()
    return lat


CASES = {
    "NikulinTriple": (
        lambda: NikulinTriple(2, 0, 0, source="U"),
        lambda: NikulinTriple(2, 0, 0, source="other"),
        lambda: NikulinTriple(2, 0, 1, source="U"),
        "source",
    ),
    "FanoFamily": (
        lambda: FanoFamily("A", 1, 0, 64, source="x"),
        lambda: FanoFamily("A", 1, 0, 64, source="y"),
        lambda: FanoFamily("A", 1, 2, 64, source="x"),
        "b3",
    ),
    "BuildingBlock": (
        lambda: involution_block(T_200),
        lambda: _block(triple=None),
        lambda: _block(triple=T_200, d=5),
        "triple",
    ),
    "IntLattice": (
        _lattice_with_caches_filled,
        lambda: IntLattice(((2, 1), (1, -4))),
        lambda: IntLattice(((2, 1), (1, 4))),
        "gram",
    ),
    "NikulinCatalog": (
        lambda: NikulinCatalog((T_200,), complete=False),
        lambda: NikulinCatalog((NikulinTriple(2, 0, 0),), complete=False),
        lambda: NikulinCatalog((T_200,), complete=True),
        "complete",
    ),
    "FanoCatalog": (
        lambda: FanoCatalog((P3,), complete_rank_1=False),
        lambda: FanoCatalog((FanoFamily("P3", 1, 0, 64),), complete_rank_1=False),
        lambda: FanoCatalog((), complete_rank_1=False),
        "families",
    ),
    "JoyceCatalog": (
        lambda: JoyceCatalog(((1, 2),), complete=False),
        lambda: JoyceCatalog(((1, 2),), complete=False),
        lambda: JoyceCatalog(((1, 2), (3, 4)), complete=False),
        "pairs",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_slots_record_semantics(name):
    make, make_equal, make_different, attr = CASES[name]
    record, equal, different = make(), make_equal(), make_different()
    assert type(record).__name__ == name

    with pytest.raises(AttributeError):
        setattr(record, attr, getattr(equal, attr))
    with pytest.raises(AttributeError):
        delattr(record, attr)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert not hasattr(record, "__dict__")

    assert record == equal and equal == record and not record != equal
    assert hash(record) == hash(equal)
    assert len({record, equal}) == 1
    assert record != different and not record == different
    assert record != tuple(getattr(record, n) for n in record.__slots__)
    assert repr(record).startswith(name + "(")
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert all(getattr(clone, n) == getattr(record, n) for n in record._fields)


# The named-tuple records: each class, its fields and defaults, one instance's
# values, and what each property reads of that instance.
VERDICT = EmbeddingVerdict(SUFFICIENT, "numeric")
CERTIFICATE = MatchCertificate(BOTH, VERDICT)
BLOCK = involution_block(T_200)
ENTRY = _Entry(BLOCK, 2, (7, 40), 0, 0, 0)

NAMED_TUPLES = {
    "EulerCheck": (
        EulerCheck,
        ("curve_count", "euler_sum", "h11", "h12", "b2_bar", "b3_bar"),
        {},
        (1, 2, 4, 20, 4, 40),
        {"ok": True},
    ),
    "FixedLocus": (
        FixedLocus,
        ("kind", "genus", "rational_curves"),
        {"genus": None, "rational_curves": None},
        ("GENERIC", 1, 3),
        {"curve_count": 4, "euler_sum": 6},
    ),
    "EmbeddingVerdict": (
        EmbeddingVerdict,
        ("status", "rule"),
        {},
        (INCONCLUSIVE, "numeric"),
        {"sufficient": False},
    ),
    "MatchCertificate": (
        MatchCertificate,
        ("condition", "verdict_a"),
        {},
        (BOTH, VERDICT),
        {"has_cond_a": True},
    ),
    "G2Record": (
        G2Record,
        ("b2", "b3", "mode", "certificate", "blocks"),
        {},
        (8, 103, EMB_C, CERTIFICATE, (BLOCK, BLOCK)),
        {"weight": 1, "diagonal": 1},
    ),
    "_Entry": (
        _Entry,
        ("block", "size", "share", "lattice", "position", "order"),
        {},
        (BLOCK, 2, (7, 40), 0, 3, 1),
        {},
    ),
    "PairClass": (
        PairClass,
        ("b2", "b3", "mode", "certificate", "weight", "diagonal", "groups"),
        {},
        (8, 103, EMB_C, CERTIFICATE, 1, 1, ((ENTRY,), (ENTRY,))),
        {},
    ),
    "JoyceComparison": (
        JoyceComparison,
        ("overlap_count", "new_count", "mod4_violations"),
        {},
        (3, 5, 0),
        {},
    ),
    "PairCounts": (
        PairCounts,
        ("clause_a", "clause_b", "clause_c", "diagonal"),
        {},
        (10, 20, 30, 4),
        {"unordered_with_self": 60, "unordered_no_self": 56, "ordered": 116},
    ),
    "Signature": (Signature, ("t_plus", "t_minus"), {}, (2, 18), {}),
    "SmithDecomposition": (
        SmithDecomposition,
        ("U", "S", "V"),
        {},
        (((1, 0), (0, 1)), ((1, 0), (0, 2)), ((0, 1), (1, 0))),
        {},
    ),
    "DiscriminantInfo": (
        DiscriminantInfo,
        ("invariant_factors", "order", "l", "is_2_elementary", "delta"),
        {},
        ((2, 2), 4, 2, True, 0),
        {},
    ),
}


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_named_tuple_record_semantics(name):
    cls, fields, defaults, values, properties = NAMED_TUPLES[name]
    assert cls.__name__ == name
    assert cls._fields == fields
    assert cls._field_defaults == defaults

    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    given = len(fields) - len(defaults)
    assert cls(*values[:given]) == (*values[:given], *defaults.values())
    assert tuple(getattr(record, f) for f in fields) == values
    assert record == values and hash(record) == hash(values)
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for attr, expected in properties.items():
        assert getattr(record, attr) == expected, attr

    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls and clone == record
    replaced = record._replace(**{fields[-1]: "other"})
    assert type(replaced) is cls and replaced == (*values[:-1], "other")

    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])


def test_no_record_derives_from_typing_named_tuple():
    # ``typing.NamedTuple`` compiles each field's annotation at import; the
    # records build on ``collections.namedtuple`` and cost none of that.
    found = []
    for path in sorted(Path(g2sum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if ast.unparse(base) in ("NamedTuple", "typing.NamedTuple"):
                        found.append(f"{path.name}:{node.name}")
    assert found == []


def test_every_named_tuple_record_is_covered():
    modules = (
        g2sum.building_blocks,
        g2sum.catalog,
        g2sum.embedding,
        g2sum.enumerator,
        g2sum.lattice_core,
    )
    defined = {
        value.__name__
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and issubclass(value, tuple)
    }
    assert defined == NAMED_TUPLES.keys()
