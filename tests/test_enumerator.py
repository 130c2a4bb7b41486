"""Enumeration modes, gluing, and the pair-counting conventions."""

from collections import Counter

import pytest

import g2sum.enumerator as enumerator_mod
from g2sum.building_blocks import (
    KIND_FANO,
    BuildingBlock,
    fano_block,
    involution_block,
    quartic_blowup_block,
)
from g2sum.catalog import FanoCatalog, JoyceCatalog, NikulinCatalog
from g2sum.cli import _MODE_SPACES
from g2sum.enumerator import (
    EMB_A,
    EMB_B,
    EMB_C,
    LARGE_RANK,
    MIRROR,
    SEQ,
    G2Record,
    IdentityError,
    _census,
    compare_joyce,
    count_matched_pairs,
    distinct_betti,
    enumerate_emb,
    enumerate_large_rank,
    enumerate_mirror,
    enumerate_seq,
    glue_betti,
)
from g2sum.embedding import matching_condition

MIRROR_BETTI = [(4, 35), (6, 41), (8, 47), (10, 53), (12, 59), (14, 65),
                (16, 71), (18, 77), (20, 83), (22, 89), (24, 95)]

SEQ_BETTI = {
    3: sorted(list(range(70, 109, 2)) + [114, 116, 158]),
    5: list(range(64, 93, 4)),
    7: list(range(66, 95, 4)),
    9: list(range(68, 85, 4)),
    11: list(range(70, 83, 4)),
    13: list(range(72, 85, 4)),
    15: list(range(74, 87, 4)),
    17: [76],
}

LARGE_RANK_B18 = [73, 75, 77, 81, 85, 87, 91, 97, 101, 105, 115, 157]
LARGE_RANK_B20 = [75, 77, 79, 83, 87, 89, 91, 93, 99, 103, 107, 117, 159]


def _record(block1, block2):
    """The record of the gluing of two blocks, built as the enumerator builds one."""
    b2, b3 = glue_betti(block1, block2)
    return G2Record(b2, b3, "GLUED", matching_condition(block1, block2), (block1, block2))


def by_b2(pairs):
    out = {}
    for b2, b3 in pairs:
        out.setdefault(b2, []).append(b3)
    return {k: sorted(v) for k, v in out.items()}


# --- gluing -------------------------------------------------------------------


def test_glue_two_p3_blocks(fano):
    p3 = fano_block(next(f for f in fano.families if f.id == "P3"))
    assert glue_betti(p3, p3) == (0, 155)


def test_glue_large_rank_with_small(nikulin_by_key):
    b18 = involution_block(nikulin_by_key[18, 0, 0])
    b111 = involution_block(nikulin_by_key[1, 1, 1])
    assert glue_betti(b18, b111) == (22, 93)


def rank_excess(block):
    """A block's share of the rank condition: its rank, 0 for the quartic."""
    return block.b2_bar - 1 - block.d


def test_glue_rank_condition_violation(monkeypatch, nikulin, nikulin_by_key):
    # No pair-space admits (18,0,0) with itself: its rank sum 36 is over 22.
    b18 = involution_block(nikulin_by_key[18, 0, 0])
    assert glue_betti(b18, b18) == (40, 79)
    assert 2 * rank_excess(b18) == 36
    # A block formula that breaks the rank condition for mirror pairs, whose
    # ranks sum to 20, is refused by the census.
    real = enumerator_mod.involution_block

    def inflated(t):
        b = real(t)
        return BuildingBlock(
            b.kind, b.label, b.b2_bar + 3, b.b3_bar, b.d, b.rank, b.l_bound, b.triple
        )

    monkeypatch.setattr(enumerator_mod, "involution_block", inflated)
    with pytest.raises(IdentityError, match=r"^MIRROR pair \S+ x \S+ breaks the rank condition"):
        enumerate_mirror(nikulin)


def test_rank_condition_boundary_is_22(monkeypatch, fano, nikulin_by_key):
    # P3 (rank 1) and (12,2,1) (rank 12) make two emb pairs: P3 x P3 and
    # P3 x (12,2,1).  Raising P3's b2_bar by k adds k to each of its shares.
    p3 = next(f for f in fano if f.id == "P3")
    small = (FanoCatalog((p3,), False), NikulinCatalog((nikulin_by_key[12, 2, 1],), False))
    real = enumerator_mod.fano_block

    def raised(k):
        def block(f):
            b = real(f)
            return BuildingBlock(
                b.kind, b.label, b.b2_bar + k, b.b3_bar, b.d, b.rank, b.l_bound, b.triple
            )

        return block

    # k = 9: P3 x (12,2,1) sums to 1 + 9 + 12 = 22 and P3 x P3 to 20.
    monkeypatch.setattr(enumerator_mod, "fano_block", raised(9))
    classes = _census(*small, (EMB_A, EMB_B, EMB_C))
    excess = sorted(sum(rank_excess(g[0].block) for g in c.groups) for c in classes)
    assert excess == [20, 22]
    # k = 10: P3 x (12,2,1) sums to 23 and breaks the condition; P3 x P3 sums to 22.
    monkeypatch.setattr(enumerator_mod, "fano_block", raised(10))
    assert [c.mode for c in _census(*small, (EMB_A,))] == [EMB_A]
    for spaces in ((EMB_A, EMB_B, EMB_C), (EMB_B,)):
        with pytest.raises(
            IdentityError,
            match=r"^EMB_B pair fano\(P3\) x involution\(12,2,1\) breaks the rank condition: "
            r".* sums to 23 > 22$",
        ):
            _census(*small, spaces)


@pytest.mark.parametrize(
    "spaces",
    [*_MODE_SPACES.values(), (EMB_A, EMB_B, EMB_C, MIRROR, SEQ, LARGE_RANK)],
    ids=[*_MODE_SPACES, "all"],
)
def test_every_census_builds_the_whole_pool_once(monkeypatch, fano, nikulin, spaces):
    # The pool is the same whatever the spaces: each Fano family, each
    # involution class with a block, then the quartic, each built once.
    calls = []
    for name in ("fano_block", "involution_block", "quartic_blowup_block"):
        real = getattr(enumerator_mod, name)

        def counted(*args, name=name, real=real):
            calls.append((name, *args))
            return real(*args)

        monkeypatch.setattr(enumerator_mod, name, counted)
    _census(fano, nikulin, spaces)
    with_block = [t for t in nikulin if t.key != (10, 10, 0)]
    assert (len(fano), len(with_block)) == (105, 74)
    assert calls == [
        *[("fano_block", f) for f in fano],
        *[("involution_block", t) for t in with_block],
        ("quartic_blowup_block",),
    ]


def test_an_unknown_space_is_refused(fano, nikulin):
    with pytest.raises(ValueError, match=r"^unknown pair-space 'bogus'$"):
        _census(fano, nikulin, ("bogus",))
    with pytest.raises(ValueError, match=r"^unknown pair-space 'emb'$"):
        _census(fano, nikulin, (MIRROR, "emb"))


def test_record_api(nikulin_by_key, emb_records):
    b18 = involution_block(nikulin_by_key[18, 0, 0])
    b200 = involution_block(nikulin_by_key[2, 0, 0])
    rec = _record(b18, b200)
    assert (rec.b2, rec.b3, rec.mode, rec.blocks) == (24, 95, "GLUED", (b18, b200))
    assert (rec.b2, rec.b3) == (24, 95) and rec.certificate.has_cond_a
    assert (rec.weight, rec.diagonal, _record(b18, b18).diagonal) == (1, 0, 1)

    for name in ("b2", "certificate"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    again = _record(b18, b200)
    assert rec == again and hash(rec) == hash(again)
    assert len({rec, again, _record(b200, b18)}) == 2
    assert len(set(emb_records)) == 8211


# --- mirror mode ----------------------------------------------------------------


def test_mirror_records(nikulin):
    records = enumerate_mirror(nikulin)
    assert len(records) == 36
    assert all(r.mode == MIRROR for r in records)
    assert all(r.b3 == 3 * r.b2 + 23 for r in records)
    assert all(r.certificate.has_cond_a for r in records)
    assert list(distinct_betti(records)) == MIRROR_BETTI


def test_mirror_every_record_verified(nikulin):
    # The rank condition is tightest on the mirror pairs: r + (20 - r) = 20.
    for r in enumerate_mirror(nikulin):
        assert sum(map(rank_excess, r.blocks)) == sum(b.rank for b in r.blocks) == 20
        assert glue_betti(*r.blocks) == (r.b2, r.b3)


# --- large-rank mode -------------------------------------------------------------


def test_large_rank_census(nikulin, fano):
    records = enumerate_large_rank(fano, nikulin)
    assert len(records) == 38
    assert all(r.mode == LARGE_RANK for r in records)
    pairs = distinct_betti(records)
    assert len(pairs) == 28
    for special in ((21, 76), (22, 93), (23, 78)):
        assert special in pairs
    rows = by_b2(pairs)
    assert rows[18] == LARGE_RANK_B18
    assert rows[20] == LARGE_RANK_B20
    assert sorted(rows) == [18, 20, 21, 22, 23]


@pytest.mark.parametrize(
    "dropped,count",
    [
        ((), 38),
        (((1, 1, 1),), 36),
        (((18, 0, 0),), 19),
        (((17, 1, 1),), 19),
        (((18, 0, 0), (17, 1, 1)), 0),
    ],
    ids=["all", "no-1-1-1", "no-18-0-0", "no-17-1-1", "no-anchor"],
)
def test_large_rank_pairs_the_anchors_present(fano, nikulin, dropped, count):
    # Like the mirror pairs, a thin catalog yields the pairs it admits: each
    # anchor it holds against the rank-one blocks it holds.
    thin = NikulinCatalog(tuple(t for t in nikulin if t.key not in dropped), complete=False)
    records = enumerate_large_rank(fano, thin)
    assert len(records) == count
    anchors = {r.blocks[0].triple.key for r in records}
    assert anchors == {(18, 0, 0), (17, 1, 1)} - set(dropped)
    assert all(r.blocks[1].rank == 1 for r in records)


# --- blow-up sequence mode --------------------------------------------------------


def test_seq_census(nikulin, fano):
    records = enumerate_seq(fano, nikulin)
    assert len(records) == 142
    assert all(r.mode == SEQ for r in records)
    pairs = distinct_betti(records)
    assert len(pairs) == 57
    assert by_b2(pairs) == SEQ_BETTI


def test_seq_quartic_block_on_every_record(nikulin, fano):
    q_label = quartic_blowup_block().label
    for r in enumerate_seq(fano, nikulin):
        assert q_label in [b.label for b in r.blocks]


# --- matched-pair mode -------------------------------------------------------------


def test_emb_census_104_families(emb_records_104):
    counts = count_matched_pairs(emb_records_104)
    assert counts.unordered_with_self == len(emb_records_104) == 8094
    assert (counts.clause_a, counts.clause_b, counts.clause_c) == (5098, 2771, 225)
    assert counts.diagonal == 106
    assert counts.ordered == 16082
    assert counts.unordered_no_self == 7988
    assert len(distinct_betti(emb_records_104)) == 302


def test_emb_census_full_catalog(emb_records):
    counts = count_matched_pairs(emb_records)
    assert counts.unordered_with_self == len(emb_records) == 8211
    assert (counts.clause_a, counts.clause_b, counts.clause_c) == (5198, 2788, 225)
    assert counts.diagonal == 107
    assert counts.ordered == 16315
    assert counts.unordered_no_self == 8104
    assert len(distinct_betti(emb_records)) == 302


def test_count_matched_pairs_rejects_non_emb_rows(fano, nikulin):
    mirror = _census(fano, nikulin, (MIRROR,))
    assert mirror
    with pytest.raises(ValueError, match="count_matched_pairs expects EMB_\\* rows, got MIRROR") as exc:
        count_matched_pairs(mirror)
    assert type(exc.value) is ValueError  # not a Gram-matrix LatticeError


def test_emb_modes_partition_records(emb_records):
    modes = {r.mode for r in emb_records}
    assert modes == {EMB_A, EMB_B, EMB_C}
    counts = count_matched_pairs(emb_records)
    assert counts.clause_a == sum(1 for r in emb_records if r.mode == EMB_A)
    assert counts.clause_b == sum(1 for r in emb_records if r.mode == EMB_B)
    assert counts.clause_c == sum(1 for r in emb_records if r.mode == EMB_C)


def test_emb_diagonal_means_equal_blocks(emb_records):
    diag = [r for r in emb_records if r.blocks[0] == r.blocks[1]]
    assert len(diag) == count_matched_pairs(emb_records).diagonal


def test_emb_certificates_all_condition_a(emb_records):
    assert all(r.certificate.has_cond_a for r in emb_records)


def lattice_class(block):
    """The only fields of a block that ``matching_condition`` reads."""
    return (block.rank, block.l_bound, None if block.triple is None else block.triple.key)


def family_of(block, fano):
    """A Fano block's family, looked up by the catalog id in its label; None
    for a block of another kind."""
    if block.kind != KIND_FANO:
        return None
    family_id = block.label.removeprefix("fano(").removesuffix(")")
    return next(f for f in fano if f.id == family_id)


def pair_class(block, fano):
    """What a pair's outcome reads of a block: its kind, lattice class, gluing
    inputs, and the catalog field that its closed-form share adds (a Fano
    family's genus; an involution's share reads only its triple)."""
    family = family_of(block, fano)
    genus = None if family is None else family.g
    return (block.kind, lattice_class(block), block.b2_bar, block.b3_bar, block.d, genus)


def test_emb_builds_each_block_once_and_certifies_each_class_once(monkeypatch, fano, nikulin):
    calls = Counter()

    def counted(name):
        real = getattr(enumerator_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("fano_block", "involution_block", "matching_condition", "glue_betti"):
        monkeypatch.setattr(enumerator_mod, name, counted(name))
    records = enumerate_emb(fano, nikulin)

    usable_triples = sum(1 for t in nikulin if t.key != (10, 10, 0))
    assert calls["fano_block"] <= len(fano)
    assert calls["involution_block"] <= usable_triples
    assert calls["fano_block"] + calls["involution_block"] <= 179
    classes = {tuple(lattice_class(b) for b in r.blocks) for r in records}
    assert len(classes) == 380
    assert calls["matching_condition"] == len(classes)
    # The census decides each unordered pair of outcome classes once.
    pair_classes = {frozenset(pair_class(b, fano) for b in r.blocks) for r in records}
    assert len(pair_classes) == 3446 < len(records)
    assert calls["glue_betti"] == len(pair_classes)


def test_emb_shared_certificates_equal_fresh_ones(emb_records):
    for r in emb_records:
        assert r.certificate == matching_condition(*r.blocks)


def test_emb_b2_zero_row(emb_records):
    rows = by_b2(distinct_betti(emb_records))
    expected = sorted(list(range(67, 148, 2)) + list(range(151, 190, 2)) + [195, 197, 239])
    assert rows[0] == expected
    assert len(rows[0]) == 64
    assert rows[18] == [93]


def test_distinct_betti_is_sorted_and_unique(emb_records):
    pairs = distinct_betti(emb_records)
    assert list(pairs) == sorted(set(pairs))


def test_table_rows_identical_between_conventions(emb_records, emb_records_104):
    # the erratum family only adds pairs whose Betti values already occur
    assert distinct_betti(emb_records) == distinct_betti(emb_records_104)


# --- record hygiene across every mode -----------------------------------------------


def all_mode_records(nikulin, fano):
    return (
        enumerate_mirror(nikulin)
        + enumerate_large_rank(fano, nikulin)
        + enumerate_seq(fano, nikulin)
    )


def test_bounds_and_sorting_all_modes(nikulin, fano, emb_records):
    per_mode = (
        enumerate_mirror(nikulin),
        enumerate_large_rank(fano, nikulin),
        enumerate_seq(fano, nikulin),
        emb_records,
    )
    for records in per_mode:
        keyed = [(r.b2, r.b3, r.mode, r.blocks[0].label, r.blocks[1].label) for r in records]
        assert keyed == sorted(keyed)
        for r in records:
            assert 0 <= r.b2 <= 24
            assert 35 <= r.b3 <= 239


def test_parity_all_modes(nikulin, fano, emb_records):
    for r in emb_records:
        assert r.b2 % 2 == 0 and r.b3 % 2 == 1
    for r in enumerate_mirror(nikulin):
        assert r.b2 % 2 == 0 and r.b3 % 2 == 1
    for r in enumerate_seq(fano, nikulin):
        assert r.b2 % 2 == 1 and r.b3 % 2 == 0
    # large-rank pairs flip parity exactly when the quartic block joins in:
    # its d is odd, every involution/fano block has even d
    q_label = quartic_blowup_block().label
    for r in enumerate_large_rank(fano, nikulin):
        with_quartic = q_label in [b.label for b in r.blocks]
        if with_quartic:
            assert r.b2 % 2 == 1 and r.b3 % 2 == 0, r
        else:
            assert r.b2 % 2 == 0 and r.b3 % 2 == 1, r


def paper_closed_form(record, fano):
    """The paper's (b2, b3) for a record's mode, from its blocks' catalog rows.

    Written out per mode, independently of the enumerator's per-block check.
    """
    block1, block2 = record.blocks
    f1, f2 = family_of(block1, fano), family_of(block2, fano)
    t1, t2 = block1.triple, block2.triple
    if record.mode == EMB_A:
        return (0, f1.g + f2.g + 27)
    if record.mode == EMB_B:
        return (2 + t2.r - t2.a, f1.g - t2.r - 3 * t2.a + 71)
    if record.mode == EMB_C:
        return (4 + t1.r + t2.r - t1.a - t2.a, 115 - t1.r - t2.r - 3 * (t1.a + t2.a))
    if record.mode == MIRROR:
        return (24 - 2 * t1.a, 95 - 6 * t1.a)
    if record.mode == SEQ:
        if f2 is not None:
            return (3, f2.g + 52)
        return (5 + t2.r - t2.a, 96 - t2.r - 3 * t2.a)
    assert record.mode == LARGE_RANK
    r1, a1 = t1.r, t1.a
    if f2 is not None:
        return (2 + r1 - a1, f2.g - r1 - 3 * a1 + 71)
    if t2 is not None:
        assert t2.key == (1, 1, 1)
        return (4 + r1 - a1, 111 - r1 - 3 * a1)
    assert block2 == quartic_blowup_block()
    return (5 + r1 - a1, 96 - r1 - 3 * a1)


def test_every_record_matches_its_mode_closed_form(nikulin, fano, emb_records):
    records = list(emb_records) + all_mode_records(nikulin, fano)
    assert {r.mode for r in records} == {EMB_A, EMB_B, EMB_C, MIRROR, SEQ, LARGE_RANK}
    for r in records:
        assert (r.b2, r.b3) == paper_closed_form(r, fano), r


# --- comparison set -----------------------------------------------------------------


def test_compare_joyce_none_when_absent(emb_records):
    assert compare_joyce(emb_records, None) is None


def test_compare_joyce_overlap_semantics(nikulin):
    records = enumerate_mirror(nikulin)
    joyce = JoyceCatalog(pairs=((4, 35), (6, 41), (1, 1)), complete=False)
    cmp = compare_joyce(records, joyce)
    assert cmp.overlap_count == 2
    assert cmp.new_count == 9  # 11 distinct mirror pairs minus the 2 shared
    # every mirror record has b2 + b3 = 4*b2 + 23 = 3 mod 4
    assert cmp.mod4_violations == 0


def test_compare_joyce_counts_violations_per_record(fano):
    families = {f.id: f for f in fano.families}
    p3 = fano_block(families["P3"])
    q3 = fano_block(families["Q3"])
    good = _record(p3, p3)  # (0, 155): sum 155 = 3 mod 4
    bad = _record(p3, q3)  # sum 145 = 1 mod 4
    assert (bad.b2 + bad.b3) % 4 == 1
    records = [good, bad, bad]
    joyce = JoyceCatalog(pairs=((good.b2, good.b3),), complete=False)
    cmp = compare_joyce(records, joyce)
    assert cmp.mod4_violations == 2  # per record, not per distinct pair
    assert cmp.overlap_count == 1
    assert cmp.new_count == 1
