"""Embedding sufficiency and matching certificates."""

import subprocess
import sys

import pytest

from g2sum.building_blocks import BuildingBlock, fano_block, involution_block
from g2sum.catalog import NikulinTriple, mirror_pairs
from g2sum.embedding import (
    BOTH,
    COND_A,
    COND_B,
    INCONCLUSIVE,
    NONE,
    SUFFICIENT,
    SUFFICIENT_UNIQUE,
    embeds_in_2e8_2h,
    matching_condition,
    nikulin_sufficient,
)
from g2sum.lattice_core import LatticeError, Signature
import g2sum.embedding as embedding_mod

E_GLUE = Signature(2, 18)  # 2*E8_NEG + 2*H
E_K3 = Signature(3, 19)


def test_sufficient_unique_small_lattice():
    v = nikulin_sufficient(Signature(1, 0), 1, 1, E_GLUE, 20)
    assert v.status == SUFFICIENT_UNIQUE


def test_inconclusive_at_boundary():
    v = nikulin_sufficient(Signature(1, 9), 10, 10, E_GLUE, 20)
    assert v.status == INCONCLUSIVE


def test_half_rank_into_k3_is_unique():
    for rk in range(1, 10):
        v = nikulin_sufficient(Signature(1, rk - 1), rk, rk, E_K3, 22)
        assert v.status == SUFFICIENT_UNIQUE, rk


def test_plain_sufficient_band():
    # l + rk in [rk_E - 2, rk_E): sufficient but uniqueness not guaranteed
    v = nikulin_sufficient(Signature(1, 9), 10, 8, E_GLUE, 20)
    assert v.status == SUFFICIENT
    v = nikulin_sufficient(Signature(1, 9), 10, 9, E_GLUE, 20)
    assert v.status == SUFFICIENT


def test_nikulin_sufficient_input_validation():
    with pytest.raises(LatticeError, match="positive rank"):
        nikulin_sufficient(Signature(0, 0), 0, 0, E_GLUE, 20)
    with pytest.raises(LatticeError, match="cannot exceed"):
        nikulin_sufficient(Signature(1, 1), 2, 3, E_GLUE, 20)


def test_nikulin_sufficient_monotone_in_l():
    for rk in range(1, 12):
        statuses = []
        for l in range(0, rk + 1):
            statuses.append(nikulin_sufficient(Signature(1, rk - 1), rk, l, E_GLUE, 20).status)
        # once inconclusive, stays inconclusive as l grows
        rank_of = {SUFFICIENT_UNIQUE: 0, SUFFICIENT: 1, INCONCLUSIVE: 2}
        degrees = [rank_of[s] for s in statuses]
        assert degrees == sorted(degrees)


def test_embeds_direct_sum_additivity():
    parts = [(3, 1, Signature(1, 2)), (5, 3, Signature(1, 4))]
    assert embeds_in_2e8_2h(parts).status == SUFFICIENT_UNIQUE
    parts = [(6, 2, Signature(1, 5)), (10, 0, Signature(1, 9))]
    assert embeds_in_2e8_2h(parts).status == SUFFICIENT
    parts = [(10, 10, Signature(1, 9))] * 2
    assert embeds_in_2e8_2h(parts).status == INCONCLUSIVE


def test_embeds_fano_pair_small_ranks():
    # rank-1 polarizing lattices: even with the worst-case bound l = rk,
    # two of them sum to rank 2, far under the gate
    parts = [(1, 1, Signature(1, 0)), (1, 1, Signature(1, 0))]
    assert embeds_in_2e8_2h(parts).status == SUFFICIENT_UNIQUE


def test_emb_run_writes_only_the_banner_to_stderr():
    # The ambient gate is read from the Gram matrix of 2*E8_NEG + 2*H, and
    # a fresh process enumerating emb has nothing to say beyond the banner.
    assert embedding_mod._AMBIENT_SIG == (2, 18)
    proc = subprocess.run(
        [sys.executable, "-m", "g2sum.cli", "betti-list", "emb"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 302
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("# data: nikulin 75 rows"), lines


def _blocks(nikulin, *keys):
    return [involution_block(nikulin.find(*k)) for k in keys]


def test_large_rank_times_rank_one_fano(nikulin, fano_rank_one):
    b18 = involution_block(nikulin.find(18, 0, 0))
    for fam in fano_rank_one:
        cert = matching_condition(b18, fano_block(fam))
        assert cert.condition == COND_A
        assert cert.verdict_a.rule == "large-rank-rank-one"
        assert not cert.has_cond_b


def test_self_pair_10_8_0(nikulin):
    (blk,) = _blocks(nikulin, (10, 8, 0))
    cert = matching_condition(blk, blk)
    # the rank bound holds, and the mirror rule rescues condition A even
    # though the numeric criterion alone is inconclusive (10+10+8+8 >= 20)
    assert cert.condition == BOTH
    assert cert.has_cond_b
    assert cert.verdict_a.rule == "mirror-pair"
    numeric = embeds_in_2e8_2h([(10, 8, Signature(1, 9))] * 2)
    assert numeric.status == INCONCLUSIVE


def test_self_pair_18_0_0_matches_nothing(nikulin):
    (blk,) = _blocks(nikulin, (18, 0, 0))
    cert = matching_condition(blk, blk)
    assert cert.condition == NONE
    assert not cert.has_cond_a and not cert.has_cond_b


def test_cond_b_only_pair(nikulin):
    b1, b2 = _blocks(nikulin, (10, 0, 0), (10, 2, 0))
    cert = matching_condition(b1, b2)
    assert cert.condition == COND_B
    assert cert.verdict_a.status == INCONCLUSIVE


def test_matching_symmetry(nikulin, fano):
    blocks = [involution_block(t) for t in list(nikulin.triples)[:12] if t.key != (10, 10, 0)]
    blocks += [fano_block(f) for f in list(fano.families)[:8]]
    for i, a in enumerate(blocks):
        for b in blocks[i:]:
            assert matching_condition(a, b).condition == matching_condition(b, a).condition


def test_all_mirror_pairs_satisfy_condition_a(nikulin):
    pairs = mirror_pairs(nikulin)
    assert len(pairs) == 36
    for t1, t2 in pairs:
        cert = matching_condition(involution_block(t1), involution_block(t2))
        assert cert.has_cond_a, (t1.key, t2.key)


def test_fixed_point_free_block_rejected():
    ghost = BuildingBlock(
        kind="INVOLUTION",
        label="involution(10,10,0)",
        b2_bar=13,
        b3_bar=4,
        d=2,
        rank=10,
        l_bound=10,
        triple=NikulinTriple(10, 10, 0),
    )
    with pytest.raises(LatticeError, match=r"\(10,10,0\)"):
        matching_condition(ghost, ghost)



def _old_mirror_pair_rule(b1, b2):
    """The mirror rule as it stood with its own exclusions, kept as an oracle."""
    t1, t2 = b1.triple, b2.triple
    if t1 is None or t2 is None:
        return None
    for first, second in ((t1, t2), (t2, t1)):
        if (
            second.r == 20 - first.r
            and second.a == first.a
            and second.delta == first.delta
            and first.r + first.a != 22
            and (first.r, first.a, first.delta) != (14, 6, 0)
            and (second.r, second.a, second.delta) != (14, 6, 0)
        ):
            return "mirror-pair"
    return None


def test_mirror_rule_matches_its_former_exclusions_on_every_loadable_shape(fano):
    # Every (r, a, delta) that load_nikulin accepts, but the fixed-point-free
    # (10,10,0), which matching_condition rejects before any rule runs.
    shapes = [
        NikulinTriple(r, a, delta)
        for r in range(1, 21)
        for a in range(0, min(r, 11) + 1)
        for delta in (0, 1)
        if (r - a) % 2 == 0
    ]
    assert len(shapes) == 190
    blocks = [involution_block(t) for t in shapes if t.key != (10, 10, 0)]
    blocks.append(fano_block(fano[0]))
    fired = 0
    for b1 in blocks:
        for b2 in blocks:
            expected = _old_mirror_pair_rule(b1, b2)
            assert embedding_mod._mirror_pair_rule(b1, b2) == expected, (b1.label, b2.label)
            fired += expected is not None
    # 58 shapes with r <= 9, (6,6,0) without a partner: 57 pairs both ways;
    # 11 rank-10 shapes each paired with itself
    assert fired == 2 * 57 + 11
