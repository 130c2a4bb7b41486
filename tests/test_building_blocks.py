"""Building-block Betti formulas and the Euler-characteristic crosscheck."""

import pytest

import g2sum.building_blocks as building_blocks
from g2sum.building_blocks import (
    KIND_BLOWUP,
    KIND_FANO,
    KIND_INVOLUTION,
    BuildingBlock,
    euler_crosscheck,
    fano_block,
    involution_block,
    quartic_blowup_block,
)
from g2sum.catalog import NikulinTriple


def test_involution_block_formulas(nikulin):
    blk = involution_block(nikulin.find(10, 8, 0))
    assert (blk.b2_bar, blk.b3_bar, blk.d) == (15, 8, 4)
    assert (blk.rank, blk.l_bound) == (10, 8)
    assert blk.kind == KIND_INVOLUTION
    assert blk.label == "involution(10,8,0)"

    blk = involution_block(nikulin.find(18, 0, 0))
    assert (blk.b2_bar, blk.b3_bar, blk.d) == (39, 8, 20)

    blk = involution_block(nikulin.find(1, 1, 1))
    assert (blk.b2_bar, blk.b3_bar, blk.d) == (4, 40, 2)


def test_involution_block_generic_identities(nikulin):
    for t in nikulin.triples:
        if t.key == (10, 10, 0):
            continue
        blk = involution_block(t)
        assert blk.b2_bar == 3 + 2 * t.r - t.a
        assert blk.b3_bar == 2 * (22 - t.r - t.a)
        assert blk.d == 2 + t.r - t.a
        assert blk.d % 2 == 0
        assert blk.b2_bar - 1 - blk.d == t.r  # open-part excess equals the rank


def test_free_involution_has_no_block():
    with pytest.raises(ValueError, match="no building block") as exc:
        involution_block(NikulinTriple(10, 10, 0))
    assert type(exc.value) is ValueError  # misuse, not a Gram-matrix LatticeError


def test_fano_block_formulas(fano):
    p3 = fano_block(next(f for f in fano.families if f.id == "P3"))
    assert (p3.b2_bar, p3.b3_bar, p3.d) == (2, 66, 0)
    assert (p3.rank, p3.l_bound) == (1, 1)
    assert p3.kind == KIND_FANO
    assert p3.label == "fano(P3)"
    for f in fano.families:
        blk = fano_block(f)
        assert blk.b2_bar == f.b2 + 1
        assert blk.b3_bar == f.b3 + f.minus_k3 + 2
        assert blk.d == 0
        assert blk.rank == f.b2


def test_quartic_blowup_block():
    q = quartic_blowup_block()
    assert (q.b2_bar, q.b3_bar, q.d, q.rank) == (4, 24, 3, 1)
    assert q.kind == KIND_BLOWUP


def test_euler_crosscheck_worked_example(nikulin):
    ec = euler_crosscheck(nikulin.find(17, 1, 1))
    assert ec.curve_count == 9
    assert ec.euler_sum == 14
    assert (ec.h11, ec.h12) == (36, 4)
    assert (ec.b2_bar, ec.b3_bar) == (36, 8)
    assert ec.ok


def test_euler_check_requires_even_euler_sum(nikulin):
    ec = euler_crosscheck(nikulin.find(17, 1, 1))
    odd = ec._replace(euler_sum=ec.euler_sum + 1)
    assert (odd.h11, 2 * odd.h12) == (odd.b2_bar, odd.b3_bar)
    assert not odd.ok


def test_euler_check_requires_equal_h11(nikulin):
    ec = euler_crosscheck(nikulin.find(17, 1, 1))
    high = ec._replace(h11=ec.b2_bar + 2)
    assert high.euler_sum % 2 == 0 and 2 * high.h12 == high.b3_bar
    assert not high.ok


def test_euler_crosscheck_all_triples(nikulin):
    checked = 0
    for t in nikulin.triples:
        if t.key == (10, 10, 0):
            continue
        assert euler_crosscheck(t).ok, t.key
        checked += 1
    assert checked == 74


def test_euler_crosscheck_tests_the_glued_block(monkeypatch, nikulin):
    t = nikulin.find(17, 1, 1)
    ec, blk = euler_crosscheck(t), involution_block(t)
    assert (ec.b2_bar, ec.b3_bar) == (blk.b2_bar, blk.b3_bar)

    def shifted(triple):
        b = involution_block(triple)
        return BuildingBlock(
            b.kind, b.label, b.b2_bar, b.b3_bar + 2, b.d, b.rank, b.l_bound, b.triple
        )

    monkeypatch.setattr(building_blocks, "involution_block", shifted)
    assert not euler_crosscheck(t).ok


def test_euler_crosscheck_rejects_free_class():
    with pytest.raises(ValueError, match="no building block") as exc:
        euler_crosscheck(NikulinTriple(10, 10, 0))
    assert type(exc.value) is ValueError
