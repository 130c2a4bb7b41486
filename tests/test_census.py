"""The census against a naive all-pairs oracle, and under changes of its catalogs.

The oracle builds every pair of each pair-space from the catalog rows, one
block per row and one certificate per pair, with the gluing formula
written out; the census decides one class of pairs at a time and weighs
it.  Both must tell the same story: the distinct pairs, the clause
totals, the diagonal and mod-4 counts, and the records in order.

The metamorphic tests change the catalogs and predict the census's answer
from its answer on the packaged rows: permuted rows, dropped rows, a Fano
family copied under a fresh id, and synthetic Fano rows at the numeric
spaces' admission edge.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2sum.building_blocks import (
    KIND_FANO,
    KIND_INVOLUTION,
    fano_block,
    involution_block,
    quartic_blowup_block,
)
from g2sum.catalog import (
    EMPTY,
    FanoCatalog,
    FanoFamily,
    JoyceCatalog,
    NikulinCatalog,
    fixed_locus,
    mirror_pairs,
)
from g2sum.embedding import _AMBIENT_RANK, matching_condition
from g2sum.enumerator import (
    EMB_A,
    EMB_B,
    EMB_C,
    LARGE_RANK,
    MIRROR,
    SEQ,
    PairCounts,
    _census,
    _record_order,
    compare_joyce,
    count_matched_pairs,
    distinct_betti,
    enumerate_emb,
    enumerate_large_rank,
    enumerate_mirror,
    enumerate_seq,
)

# The triples the large-rank pairs read: the two anchors, then the rank-one
# class that pairs with them.
LARGE_RANK_TRIPLES = ((18, 0, 0), (17, 1, 1), (1, 1, 1))
EMB = (EMB_A, EMB_B, EMB_C)
CLAUSES = {
    (KIND_FANO, KIND_FANO): EMB_A,
    (KIND_FANO, KIND_INVOLUTION): EMB_B,
    (KIND_INVOLUTION, KIND_INVOLUTION): EMB_C,
}


def oracle(fano, nikulin):
    """Per pair-space, every pair as (b2, b3, mode, label1, label2, certificate), sorted."""
    blocks = [fano_block(f) for f in fano]
    blocks += [involution_block(t) for t in nikulin if fixed_locus(t).kind != EMPTY]
    quartic = quartic_blowup_block()

    def size(block):
        return block.rank + block.l_bound

    emb = [
        (CLAUSES[p.kind, q.kind], p, q)
        for i, p in enumerate(blocks)
        for q in blocks[i:]
        if size(p) + size(q) < 20
    ]
    spaces = {clause: [pair for pair in emb if pair[0] == clause] for clause in EMB}
    spaces |= {
        MIRROR: [
            (MIRROR, involution_block(t1), involution_block(t2)) for t1, t2 in mirror_pairs(nikulin)
        ],
        SEQ: [(SEQ, quartic, q) for q in blocks if size(quartic) + size(q) < 20],
    }
    # Each anchor the catalog holds, against every rank-one block.
    spaces[LARGE_RANK] = [
        (LARGE_RANK, involution_block(nikulin.find(*key)), q)
        for key in LARGE_RANK_TRIPLES[:2]
        if nikulin.find(*key) is not None
        for q in blocks + [quartic]
        if q.rank == 1
    ]
    return {
        space: sorted(
            (
                (p.d + q.d, p.b3_bar + q.b3_bar + p.d + q.d + 23, mode, p.label, q.label,
                 matching_condition(p, q))
                for mode, p, q in pairs
            ),
            key=lambda row: row[:5],
        )
        for space, pairs in spaces.items()
    }


def enumerate_space(space, fano, nikulin):
    if space == EMB:
        return enumerate_emb(fano, nikulin)
    if space == MIRROR:
        return enumerate_mirror(nikulin)
    if space == SEQ:
        return enumerate_seq(fano, nikulin)
    return enumerate_large_rank(fano, nikulin)


def record_rows(classes):
    """The oracle's rows of ``classes``, in ``_record_order``."""
    return [
        (*classes[i][:3], p.block.label, q.block.label, classes[i].certificate)
        for i, p, q in _record_order(classes)[0]
    ]


@st.composite
def sub_catalogs(draw, fano, nikulin):
    """Any subset of the rows of each catalog, in catalog order.

    The large-rank triples are all kept, all dropped, one of them dropped,
    or left as drawn.
    """
    families = [f for f in fano if draw(st.booleans())]
    keep = [t for t in nikulin if draw(st.booleans())]
    needs = draw(st.sampled_from(("as drawn", "all", "none", "one missing")))
    if needs != "as drawn":
        missing = {
            "all": (),
            "none": LARGE_RANK_TRIPLES,
            "one missing": (draw(st.sampled_from(LARGE_RANK_TRIPLES)),),
        }[needs]
        keep = [
            t
            for t in nikulin
            if t.key not in missing and (t in keep or t.key in LARGE_RANK_TRIPLES)
        ]
    return (
        FanoCatalog(tuple(families), complete_rank_1=False),
        NikulinCatalog(tuple(keep), complete=False),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_census_and_records_match_the_all_pairs_oracle(fano, nikulin, data):
    fano_cat, nikulin_cat = data.draw(sub_catalogs(fano, nikulin))
    expected = oracle(fano_cat, nikulin_cat)
    # Every sub-catalog yields a census of every space, however thin.
    spaces = (*EMB, MIRROR, SEQ, LARGE_RANK)
    census = _census(fano_cat, nikulin_cat, spaces)
    # One list: each space's classes, in the order the spaces are given.
    modes = [c.mode for c in census]
    assert modes == sorted(modes, key=spaces.index)

    joyce_pairs = {row[:2] for rows in expected.values() for row in rows[::3]} | {(1, 1)}
    joyce = JoyceCatalog(tuple(sorted(joyce_pairs)), complete=False)
    # The emb mode is the three clause spaces together.
    views = {space: (expected[space], [c for c in census if c.mode == space]) for space in spaces}
    views[EMB] = (
        sorted((row for clause in EMB for row in expected[clause]), key=lambda row: row[:5]),
        [c for c in census if c.mode in EMB],
    )
    for space, (rows, classes) in views.items():
        assert distinct_betti(classes) == tuple(sorted({row[:2] for row in rows}))
        totals = Counter()
        for c in classes:
            totals[c.mode] += c.weight
        assert totals == Counter(row[2] for row in rows)
        assert sum(c.weight for c in classes) == len(rows)
        assert sum(c.diagonal for c in classes) == sum(1 for row in rows if row[3] == row[4])
        comparison = compare_joyce(classes, joyce)
        assert comparison.mod4_violations == sum(1 for row in rows if sum(row[:2]) % 4 != 3)
        ours = {row[:2] for row in rows}
        assert comparison.overlap_count == len(ours & joyce_pairs)
        assert comparison.new_count == len(ours - joyce_pairs)
        if space in EMB:
            # A clause has no library enumeration; the CLI renders its record
            # order, from a census of all spaces or of the clause alone.
            assert record_rows(classes) == rows
            assert record_rows(_census(fano_cat, nikulin_cat, (space,))) == rows
            continue
        if space == EMB:
            by_mode = Counter(row[2] for row in rows)
            diagonal = sum(1 for row in rows if row[3] == row[4])
            assert count_matched_pairs(classes) == PairCounts(
                by_mode[EMB_A], by_mode[EMB_B], by_mode[EMB_C], diagonal
            )

        records = enumerate_space(space, fano_cat, nikulin_cat)
        assert [
            (r.b2, r.b3, r.mode, r.blocks[0].label, r.blocks[1].label, r.certificate)
            for r in records
        ] == rows
        if space == EMB:
            assert count_matched_pairs(records) == count_matched_pairs(classes)


ALL = (*EMB, MIRROR, SEQ, LARGE_RANK)


@pytest.fixture(scope="module")
def packaged_classes(fano, nikulin):
    return _census(fano, nikulin, ALL)


def class_rows(classes):
    """What a class reports, as a multiset: (b2, b3, mode, condition, weight, diagonal)."""
    return Counter(
        (c.b2, c.b3, c.mode, c.certificate.condition, c.weight, c.diagonal) for c in classes
    )


def unordered_pairs(classes):
    """Each pair of ``classes`` as (b2, b3, mode, label, label), labels sorted, as a multiset."""
    return Counter(
        (*classes[i][:3], *sorted((p.block.label, q.block.label)))
        for i, p, q in _record_order(classes)[0]
    )


METAMORPHIC = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@METAMORPHIC
@given(data=st.data())
def test_permuted_rows_keep_every_class_and_every_unordered_pair(
    fano, nikulin, packaged_classes, data
):
    families = tuple(data.draw(st.permutations(fano.families)))
    triples = tuple(data.draw(st.permutations(nikulin.triples)))
    shuffled = _census(FanoCatalog(families, False), NikulinCatalog(triples, False), ALL)
    assert class_rows(shuffled) == class_rows(packaged_classes)
    assert distinct_betti(shuffled) == distinct_betti(packaged_classes)
    assert unordered_pairs(shuffled) == unordered_pairs(packaged_classes)


def test_record_order_follows_catalog_row_order(fano, nikulin, packaged_classes):
    # Decided: a clause pair puts its earlier pool block first, so the order
    # and orientation of the records depend on the catalogs' row order, and
    # only their multiset of unordered pairs on the catalogs' sets of rows.
    emb = [c for c in packaged_classes if c.mode in EMB]
    reversed_fano = FanoCatalog(fano.families[::-1], False)
    reversed_emb = _census(reversed_fano, nikulin, EMB)
    assert record_rows(reversed_emb) != record_rows(emb)
    assert unordered_pairs(reversed_emb) == unordered_pairs(emb)


@METAMORPHIC
@given(data=st.data())
def test_dropping_rows_only_drops_pairs(fano, nikulin, packaged_classes, data):
    fano_cat, nikulin_cat = data.draw(sub_catalogs(fano, nikulin))
    fewer = _census(fano_cat, nikulin_cat, ALL)
    assert unordered_pairs(fewer) <= unordered_pairs(packaged_classes)
    assert set(distinct_betti(fewer)) <= set(distinct_betti(packaged_classes))


@METAMORPHIC
@given(data=st.data())
def test_a_copied_fano_family_joins_its_group(fano, nikulin, packaged_classes, data):
    f = data.draw(st.sampled_from(fano.families))
    at = data.draw(st.integers(0, len(fano)))
    copy = FanoFamily(f.id + "'", f.b2, f.b3, f.minus_k3)
    assert all(g.id != copy.id for g in fano)
    families = (*fano.families[:at], copy, *fano.families[at:])
    grown = _census(FanoCatalog(families, False), nikulin, ALL)
    old, new = f"fano({f.id})", f"fano({copy.id})"

    def labels(group):
        return tuple(sorted(e.block.label for e in group if e.block.label != new))

    def by_groups(classes):
        # A class by its mode and its two groups, the copy left out.
        return {(c.mode, *sorted(map(labels, c.groups))): c for c in classes}

    before, after = by_groups(packaged_classes), by_groups(grown)
    assert before.keys() == after.keys()
    for key, c in before.items():
        first, second = c.groups
        m, m2 = len(first), len(second)
        if first is second:
            weight, diagonal = c.weight, c.diagonal
            if old in labels(first):
                weight, diagonal = (m + 1) * (m + 2) // 2, m + 1
        elif old in labels(first):
            weight, diagonal = (m + 1) * m2, 0
        elif old in labels(second):
            weight, diagonal = m * (m2 + 1), 0
        else:
            weight, diagonal = c.weight, c.diagonal
        assert after[key][:4] == c[:4], key
        assert (after[key].weight, after[key].diagonal) == (weight, diagonal), key
    assert distinct_betti(grown) == distinct_betti(packaged_classes)


@st.composite
def edge_families(draw):
    """Synthetic Fano rows with b2 = 8, 9 and 10: blocks of size 16, 18 and 20."""
    return [
        FanoFamily(
            f"edge-{b2}-{j}", b2, draw(st.sampled_from((0, 2, 4))), 2 * draw(st.integers(1, 40))
        )
        for b2 in (8, 9, 10)
        for j in range(draw(st.integers(1, 3)))
    ]


@METAMORPHIC
@given(data=st.data())
def test_numeric_spaces_admit_exactly_the_pairs_below_the_ambient_rank(fano, nikulin, data):
    extra = data.draw(edge_families())
    fano_cat = FanoCatalog((*fano.families, *extra), False)
    admitted = {key[2:] for key in unordered_pairs(_census(fano_cat, nikulin, (*EMB, SEQ)))}
    blocks = [fano_block(f) for f in fano_cat]
    blocks += [involution_block(t) for t in nikulin if fixed_locus(t).kind != EMPTY]
    quartic = quartic_blowup_block()
    size = {b.label: b.rank + b.l_bound for b in (*blocks, quartic)}
    # Fano 2 b2, involution r + a with r - a even, quartic 2: no odd size.
    assert all(s % 2 == 0 for s in size.values())
    candidates = [
        (CLAUSES[p.kind, q.kind], *sorted((p.label, q.label)))
        for i, p in enumerate(blocks)
        for q in blocks[i:]
    ]
    candidates += [(SEQ, *sorted((quartic.label, q.label))) for q in blocks]
    assert admitted <= set(candidates)
    edge = set()
    for mode, label1, label2 in candidates:
        total = size[label1] + size[label2]
        assert ((mode, label1, label2) in admitted) == (total < _AMBIENT_RANK), (label1, label2)
        if "fano(edge-" in label1 + label2:
            edge.add(total)
    # The synthetic groups sit on both sides of the edge, at 18 and 20.
    assert {18, 20} <= edge
