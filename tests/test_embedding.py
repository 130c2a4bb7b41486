"""The matching certificate: the numeric criterion, its special rules."""

import hashlib
import subprocess
import sys
from collections import Counter

import pytest

from g2sum.building_blocks import (
    BuildingBlock,
    fano_block,
    involution_block,
    quartic_blowup_block,
)
from g2sum.catalog import NikulinTriple, mirror_pairs
from g2sum.embedding import (
    BOTH,
    COND_A,
    COND_B,
    INCONCLUSIVE,
    NONE,
    SUFFICIENT,
    SUFFICIENT_UNIQUE,
    matching_condition,
)
import g2sum.embedding as embedding_mod


def _numeric(*shapes):
    """The numeric status of two hand-built blocks of shapes (rank, l_bound).

    No catalog row is attached, so neither special rule can fire.
    """
    b1, b2 = (BuildingBlock("FANO", f"lattice{s}", 0, 0, 0, *s) for s in shapes)
    verdict = matching_condition(b1, b2).verdict_a
    assert verdict.rule == "numeric"
    return verdict.status


def test_sufficient_unique_small_lattice():
    assert _numeric((1, 0), (1, 0)) == SUFFICIENT_UNIQUE
    assert _numeric((1, 1), (0, 0)) == SUFFICIENT_UNIQUE


def test_inconclusive_at_boundary():
    # size rk + l against the ambient rank 20: 19 passes, 20 does not
    assert _numeric((5, 5), (5, 4)) == SUFFICIENT
    assert _numeric((5, 5), (5, 5)) == INCONCLUSIVE
    assert _numeric((10, 9), (0, 0)) == SUFFICIENT
    assert _numeric((10, 10), (0, 0)) == INCONCLUSIVE


def test_plain_sufficient_band():
    # size in [18, 20): sufficient but uniqueness not guaranteed
    assert _numeric((5, 3), (5, 4)) == SUFFICIENT_UNIQUE
    assert _numeric((5, 4), (5, 4)) == SUFFICIENT
    assert _numeric((5, 4), (5, 5)) == SUFFICIENT


def test_nikulin_sufficient_input_validation():
    with pytest.raises(ValueError, match="positive rank") as exc:
        _numeric((0, 0), (0, 0))
    assert type(exc.value) is ValueError  # misuse, not a Gram-matrix LatticeError
    with pytest.raises(ValueError, match=r"^l\(N\) = 3 cannot exceed rk N = 2$") as exc:
        _numeric((1, 1), (1, 2))
    assert type(exc.value) is ValueError


def test_nikulin_sufficient_monotone_in_l():
    rank_of = {SUFFICIENT_UNIQUE: 0, SUFFICIENT: 1, INCONCLUSIVE: 2}
    for r1 in range(1, 12):
        for r2 in range(1, 12):
            for l2 in range(0, r2 + 1):
                degrees = [rank_of[_numeric((r1, l1), (r2, l2))] for l1 in range(0, r1 + 1)]
                # once inconclusive, stays inconclusive as l grows
                assert degrees == sorted(degrees), (r1, r2, l2)


def test_embeds_direct_sum_additivity():
    assert _numeric((3, 1), (5, 3)) == SUFFICIENT_UNIQUE
    assert _numeric((6, 2), (10, 0)) == SUFFICIENT
    assert _numeric((10, 10), (10, 10)) == INCONCLUSIVE


def test_embeds_fano_pair_small_ranks():
    # rank-1 polarizing lattices: even with the worst-case bound l = rk,
    # two of them sum to size 4, far under the gate
    assert _numeric((1, 1), (1, 1)) == SUFFICIENT_UNIQUE


def test_emb_run_writes_only_the_banner_to_stderr():
    # The ambient gate is read from the parsed expression 2*E8(-1) + 2*U, and
    # a fresh process enumerating emb has nothing to say beyond the banner.
    assert (embedding_mod._AMBIENT_SIG, embedding_mod._AMBIENT_RANK) == ((2, 18), 20)
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


def test_self_pair_10_8_0(nikulin):
    (blk,) = _blocks(nikulin, (10, 8, 0))
    cert = matching_condition(blk, blk)
    # the rank bound holds, and the mirror rule rescues condition A even
    # though the numeric criterion alone is inconclusive (10+10+8+8 >= 20)
    assert cert.condition == BOTH
    assert cert.verdict_a.rule == "mirror-pair"
    assert _numeric((10, 8), (10, 8)) == INCONCLUSIVE


def test_self_pair_18_0_0_matches_nothing(nikulin):
    (blk,) = _blocks(nikulin, (18, 0, 0))
    cert = matching_condition(blk, blk)
    assert cert.condition == NONE
    assert not cert.has_cond_a


def test_cond_b_only_pair(nikulin):
    b1, b2 = _blocks(nikulin, (10, 0, 0), (10, 2, 0))
    cert = matching_condition(b1, b2)
    assert cert.condition == COND_B
    assert cert.verdict_a.status == INCONCLUSIVE


def test_matching_symmetry(nikulin, fano):
    # The census decides one certificate per unordered pair of lattice
    # classes, which is sound only if the whole certificate (condition,
    # status and rule) ignores the order of the pair, over the whole pool.
    pool = _pool(fano, nikulin)
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i:]]
    assert len(pairs) == 16290
    asymmetric = [
        (a.label, b.label) for a, b in pairs if matching_condition(a, b) != matching_condition(b, a)
    ]
    assert asymmetric == []


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
    with pytest.raises(ValueError, match=r"\(10,10,0\)") as exc:
        matching_condition(ghost, ghost)
    assert type(exc.value) is ValueError


def _pool(fano, nikulin):
    """The census pool: Fano blocks, involution blocks but (10,10,0), the quartic."""
    blocks = [fano_block(f) for f in fano]
    blocks += [involution_block(t) for t in nikulin if t.key != (10, 10, 0)]
    return blocks + [quartic_blowup_block()]


def test_certificate_table_is_pinned(fano, nikulin):
    # Every ordered pair of the 180-block pool, hashed in pool order: a
    # change to the criterion, to either rule or to their order shows here.
    pool = _pool(fano, nikulin)
    assert len(pool) == 180
    digest = hashlib.sha256()
    outcomes = Counter()
    for b1 in pool:
        for b2 in pool:
            cert = matching_condition(b1, b2)
            key = (cert.condition, cert.verdict_a.status, cert.verdict_a.rule)
            digest.update(repr(key).encode())
            outcomes[key] += 1
    assert digest.hexdigest() == (
        "37243793811e4126f67cac1553a4bdebc3b78ca64cb47bb56e727b8f2f0831c6"
    )
    assert outcomes == {
        (BOTH, SUFFICIENT_UNIQUE, "numeric"): 14570,
        (NONE, INCONCLUSIVE, "numeric"): 11528,
        (COND_B, INCONCLUSIVE, "numeric"): 4134,
        (BOTH, SUFFICIENT, "numeric"): 1450,
        (COND_A, SUFFICIENT, "numeric"): 382,
        (COND_A, SUFFICIENT_UNIQUE, "numeric"): 198,
        (COND_A, SUFFICIENT, "large-rank-rank-one"): 76,
        (COND_A, SUFFICIENT, "mirror-pair"): 52,
        (BOTH, SUFFICIENT, "mirror-pair"): 10,
    }


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


def _even_two_elementary_lattice_exists(t_plus, t_minus, a, delta):
    """Nikulin (1979), Thm 3.6.2, written out condition by condition."""
    rank, sig = t_plus + t_minus, (t_plus - t_minus) % 8
    if a > rank or (rank - a) % 2:
        return False
    if delta == 0 and sig % 4:
        return False
    if a == 0 and (delta == 1 or sig != 0):
        return False
    if a == 1 and sig not in (1, 7):
        return False
    if a == 2 and sig == 4 and delta == 1:
        return False
    return not (delta == 0 and a == rank and sig != 0)


def _complement_test(b1, b2):
    """Mirror partners: (20-r, a, delta), a lattice of signature (1, 19-r)."""
    t1, t2 = b1.triple, b2.triple
    if t1 is None or t2 is None:
        return None
    if t2.key == (20 - t1.r, t1.a, t1.delta) and _even_two_elementary_lattice_exists(
        1, 19 - t1.r, t1.a, t1.delta
    ):
        return "mirror-pair"
    return None


def test_mirror_rule_matches_its_former_exclusions_on_every_loadable_shape(nikulin, fano):
    # Every shape load_nikulin accepts, the 75 packaged classes, but the
    # fixed-point-free (10,10,0), which matching_condition rejects before
    # any rule runs, plus a Fano block.  The complement test is the oracle.
    blocks = [involution_block(t) for t in nikulin if t.key != (10, 10, 0)]
    assert len(blocks) == 74
    blocks.append(fano_block(fano[0]))
    fired = 0
    for b1 in blocks:
        for b2 in blocks:
            expected = _complement_test(b1, b2)
            assert _old_mirror_pair_rule(b1, b2) == expected, (b1.label, b2.label)
            assert embedding_mod._mirror_pair_rule(b1, b2) == expected, (b1.label, b2.label)
            fired += expected is not None
    # 26 pairs with r < 10 both ways, and 10 rank-10 classes each with itself
    assert fired == 62
