"""Immutability, equality and hashing of the slots records.

Each case builds two records that differ only in fields excluded from
equality (or not at all), and one that differs in a compared field.
"""

import copy
import pickle

import pytest

from g2sum.building_blocks import BuildingBlock, involution_block
from g2sum.catalog import (
    FanoCatalog,
    FanoFamily,
    JoyceCatalog,
    NikulinCatalog,
    NikulinTriple,
)
from g2sum.lattice_core import IntLattice

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
