"""Enumeration of matched block pairs and their 7-manifold Betti numbers.

Gluing two blocks along a K3 fibre, with polarizing lattices that meet
only in zero, gives a closed 7-manifold with

    b2(M) = d1 + d2,
    b3(M) = b3_bar1 + b3_bar2 + b2(M) + 23.

Every enumeration here is a *pair-space*: a set of block pairs drawn from
one pool, built once per census in catalog order (each Fano family, each
involution class but the fixed-point-free (10,10,0), then the quartic
blow-up block).  A block's *size* is ``rank + l_bound``; a pair passes
the numeric embedding criterion when its total size is below the rank of
the gluing ambient 2*E8(-1) + 2*U, which is 20 (``embedding._AMBIENT_RANK``).

* ``EMB_A``       every unordered pair of Fano blocks of size below 20;
* ``EMB_B``       every Fano block against every involution block, size
                  below 20;
* ``EMB_C``       every unordered pair of involution blocks of size below
                  20 (the three are the clauses of the matched pairs, and
                  the library's and the CLI's ``emb`` is their union);
* ``MIRROR``      the pairs of ``catalog.mirror_pairs``, which must also
                  satisfy b3 = 3 b2 + 23;
* ``SEQ``         the quartic block against every pool block, size below 20;
* ``LARGE_RANK``  (18,0,0) and (17,1,1) against every rank-1 block: the
                  rank-1 Fano families, the (1,1,1) class and the quartic;
                  like ``MIRROR``, it pairs only the classes the catalog
                  holds, so a catalog without an anchor yields fewer pairs.

A pair's outcome (its certificate, ``glue_betti`` result and identity
checks) reads only each block's kind, lattice class
``(rank, l_bound, triple)``, gluing inputs ``(b2_bar, b3_bar, d)`` and
catalog share ``(d, e)``: its *outcome class*.  The *census* is the one
loop that decides outcomes, for the spaces it is asked for and no other.
It builds the whole pool whatever the spaces, and sorts the pool's
outcome groups by size, stably; the quartic stays aside.  Each space
reads only the groups: ``EMB_A`` and ``EMB_C`` pair a group of their kind
with the slice of that kind's groups from itself to the first whose size
is the ambient's rank minus its own,
``EMB_B`` a Fano group with the involution groups below that size,
``SEQ`` the quartic (size 2) with the groups below the ambient's rank
minus 2, and ``MIRROR`` and ``LARGE_RANK`` name their
one-block involution groups by triple key, so no pair is tested and
rejected.  Each admitted pair of groups, a group possibly with itself,
is decided once, from their first members; the certificate, which reads
only the lattice classes, is decided once per unordered pair of those
over all the spaces.  The census returns one list of the decided
``PairClass``es, each space's in the order the spaces are given; a
class's space is its mode.  A class carries its *weight*, the number of
block pairs it stands for: m * m' for two groups of m and m' blocks,
m (m + 1) / 2 for a group of m paired with itself, m of them *diagonal*
(a block with itself).

Two readers sit on the census.  ``_record_order`` lists each pair of the
classes as (class index, entry, entry) in record order, oriented per
space: a clause pair puts its earlier pool block first (for ``EMB_B``,
its Fano block), the other spaces their fixed side; it also hands back
the entries of the classes' distinct groups it read for the sort;
``enumerate_*`` build their ``G2Record``s from the pairs, and the CLI
renders them, its labels read from those entries, without building any.
``distinct_betti``, ``count_matched_pairs`` and ``compare_joyce`` read
weighted rows, a class or a record, which is a row of weight 1, so the
reports never build the records.

A record's Betti numbers come from ``glue_betti`` alone and are checked
against a closed form summed per block from the catalog row, with
b2 = d1 + d2 and b3 = e1 + e2 + 23 for the block shares (d, e): Fano
(0, g + 2), involution (2 + r - a, 46 - r - 3a), quartic (3, 27).  Each
certificate must carry condition A.  Each pair must keep the rank
condition: (b2_bar - 1 - d) summed over its two blocks is at most 22.  That
quantity is a block's rank (0 for the quartic), and every pair-space keeps
the rank sum at most 20.  The three identities are enforced by explicit
checks that raise ``IdentityError`` in every build, ``python -O``
included, at the first pair class that breaks one; they are structural,
so a failure means a transcription bug.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from .building_blocks import (
    KIND_FANO,
    KIND_INVOLUTION,
    BuildingBlock,
    fano_block,
    involution_block,
    quartic_blowup_block,
)
from .catalog import (
    EMPTY,
    FanoCatalog,
    FanoFamily,
    JoyceCatalog,
    NikulinCatalog,
    fixed_locus,
    mirror_pairs,
)
from .embedding import _AMBIENT_RANK, LARGE_RANK_ANCHORS, MatchCertificate, matching_condition

EMB_A = "EMB_A"
EMB_B = "EMB_B"
EMB_C = "EMB_C"
MIRROR = "MIRROR"
SEQ = "SEQ"
LARGE_RANK = "LARGE_RANK"


class IdentityError(RuntimeError):
    """A structural identity failed for an enumerated record.

    Raised when a record's closed form and gluing formula disagree, when a
    pair breaks the rank condition, or when a pair admitted by its clause
    lacks condition A.  Each is a bug in the program, never in the catalog
    data.
    """


class G2Record(NamedTuple):
    """One matched pair of blocks and the resulting (b2, b3)."""

    b2: int
    b3: int
    mode: str
    certificate: MatchCertificate
    blocks: tuple[BuildingBlock, BuildingBlock]

    @property
    def weight(self) -> int:
        """A record is one pair; ``PairClass.weight`` counts a class's pairs."""
        return 1

    @property
    def diagonal(self) -> int:
        """1 for a block paired with itself, else 0."""
        return 1 if self.blocks[0] == self.blocks[1] else 0


def glue_betti(block1: BuildingBlock, block2: BuildingBlock) -> tuple[int, int]:
    """Betti numbers (b2, b3) of the 7-manifold glued from two blocks.

    The formula needs the rank condition, (b2_bar - 1 - d) summed over both
    blocks at most 22; the census checks it as an identity for each pair
    class it decides.
    """
    b2 = block1.d + block2.d
    return (b2, block1.b3_bar + block2.b3_bar + b2 + 23)


class _Entry(NamedTuple):
    """One pooled block with what every pair it joins reads of it.

    ``lattice`` is a small int, unique within one census, for the block's
    lattice class; ``position`` is its place in the pool and ``order`` its
    label's rank among the pool's labels.
    """

    block: BuildingBlock
    size: int
    share: tuple[int, int]
    lattice: int
    position: int
    order: int


class PairClass(NamedTuple):
    """The pairs of one pair-space that join two outcome classes of blocks.

    ``groups`` holds the two classes, each a tuple of pool entries in pool
    order; every pair of a member of the first with a member of the second
    shares the outcome ``(b2, b3, mode, certificate)``.  When both
    are one group its pairs are a member with itself or with a later
    member.  ``weight`` counts the pairs and ``diagonal`` those of a block
    with itself.
    """

    b2: int
    b3: int
    mode: str
    certificate: MatchCertificate
    weight: int
    diagonal: int
    groups: tuple[tuple[_Entry, ...], tuple[_Entry, ...]]


def _group_size(group: tuple[_Entry, ...]) -> int:
    return group[0].size


def _census(
    fano: Iterable[FanoFamily], nikulin: NikulinCatalog, spaces: Sequence[str]
) -> list[PairClass]:
    """The decided pair classes of ``spaces``, all drawn from one pool, in
    one list: each space's classes, in the order the spaces are given.

    A class's space is its mode.  The spaces are decided in that order, so
    an identity failure is reported for the first space that has one.  An
    unknown space raises ``ValueError``.
    """
    made = [(fano_block(f), (0, f.g + 2)) for f in fano]
    for t in nikulin:
        if fixed_locus(t).kind != EMPTY:
            made.append((involution_block(t), (2 + t.r - t.a, 46 - t.r - 3 * t.a)))
    made.append((quartic_blowup_block(), (3, 27)))
    order = {label: i for i, label in enumerate(sorted({block.label for block, _ in made}))}
    ids: dict[tuple, int] = {}
    members: dict[tuple, list[_Entry]] = {}  # per outcome class, its blocks
    for position, (block, share) in enumerate(made):
        triple = block.triple
        lattice = (block.rank, block.l_bound, None if triple is None else triple.key)
        outcome = (block.kind, lattice, block.b2_bar, block.b3_bar, block.d, share)
        e = _Entry(
            block,
            block.rank + block.l_bound,
            share,
            ids.setdefault(lattice, len(ids)),
            position,
            order[block.label],
        )
        members.setdefault(outcome, []).append(e)
    # The quartic's group is the last; the others are ordered by size, and
    # stably, so in pool order within a size, and then split by kind.
    *groups, quartic = map(tuple, members.values())
    groups.sort(key=_group_size)
    fanos = [g for g in groups if g[0].block.kind == KIND_FANO]
    involutions = [g for g in groups if g[0].block.kind == KIND_INVOLUTION]
    by_key = {g[0].block.triple.key: g for g in involutions}

    def below(pool: list, size: int, start: int = 0) -> list:
        # The groups of ``pool`` from ``start`` on whose size is below the
        # ambient's rank minus ``size``.
        return pool[start : bisect_left(pool, _AMBIENT_RANK - size, start, key=_group_size)]

    def group_pairs(space: str) -> list[tuple[tuple[_Entry, ...], tuple[_Entry, ...]]]:
        # A group's members share its size, rank and triple, so the numeric
        # spaces are slices of the size order and a triple key names a group.
        if space == EMB_A or space == EMB_C:
            pool = fanos if space == EMB_A else involutions
            return [(g, h) for i, g in enumerate(pool) for h in below(pool, g[0].size, i)]
        if space == EMB_B:
            return [(g, h) for g in fanos for h in below(involutions, g[0].size)]
        if space == SEQ:
            return [(quartic, h) for h in below(groups, quartic[0].size)]
        if space == MIRROR:
            return [(by_key[t1.key], by_key[t2.key]) for t1, t2 in mirror_pairs(nikulin)]
        if space != LARGE_RANK:
            raise ValueError(f"unknown pair-space {space!r}")
        partners = [h for h in (*groups, quartic) if h[0].block.rank == 1]
        return [(by_key[key], h) for key in LARGE_RANK_ANCHORS if key in by_key for h in partners]

    # A class's outcome is decided from the first member of each group.  A
    # certificate reads only the two lattice classes, and its value not
    # their order, so it is decided, and checked, once per unordered pair of
    # them across all the spaces.
    certificates: dict[tuple[int, int], MatchCertificate] = {}
    classes: list[PairClass] = []
    for mode in spaces:
        for first, second in group_pairs(mode):
            p, q = first[0], second[0]
            block1, block2 = p.block, q.block
            key = (p.lattice, q.lattice) if p.lattice <= q.lattice else (q.lattice, p.lattice)
            certificate = certificates.get(key)
            if certificate is None:
                certificate = matching_condition(block1, block2)
                if not certificate.has_cond_a:
                    raise IdentityError(
                        f"{mode} pair lost condition A: {block1.label} x {block2.label}"
                    )
                certificates[key] = certificate
            b2, b3 = glue = glue_betti(block1, block2)
            (d1, e1), (d2, e2) = p.share, q.share
            if b2 != d1 + d2 or b3 != e1 + e2 + 23:
                raise IdentityError(
                    f"closed-form/glue disagreement in {mode} for "
                    f"{block1.label} x {block2.label}: "
                    f"closed {(d1 + d2, e1 + e2 + 23)}, glued {glue}"
                )
            excess = block1.b2_bar - 1 - block1.d + block2.b2_bar - 1 - block2.d
            if excess > 22:
                raise IdentityError(
                    f"{mode} pair {block1.label} x {block2.label} breaks the rank "
                    f"condition: (b2_bar - 1 - d) sums to {excess} > 22"
                )
            if mode == MIRROR and b3 != 3 * b2 + 23:
                raise IdentityError(
                    f"mirror pair {block1.label} x {block2.label} gives {glue}, "
                    "off the line b3 = 3 b2 + 23"
                )
            m = len(first)
            if first is second:
                weight, diagonal = m * (m + 1) // 2, m
            else:
                weight, diagonal = m * len(second), 0
            classes.append(PairClass(b2, b3, mode, certificate, weight, diagonal, (first, second)))
    return classes


def _record_order(
    classes: Sequence[PairClass],
) -> tuple[list[tuple[int, _Entry, _Entry]], list[_Entry]]:
    """``(class index, first entry, second entry)`` of each pair of ``classes``,
    and the entries of the classes' distinct groups.

    The pairs come in record order: sorted on (b2, b3, mode, label ranks).
    A pair of the three clause spaces puts its earlier pool block first;
    the other spaces put their fixed side first: the quartic, the mirror
    triple with r <= 10, the large-rank anchor.  The entries are those the
    pairs draw from, each once, for a reader that needs them without
    another pass over the classes.
    """
    pairs: list[tuple[int, _Entry, _Entry]] = []
    for i, (_, _, mode, _, _, _, (first, second)) in enumerate(classes):
        if first is second:
            pairs += [(i, p, q) for j, p in enumerate(first) for q in first[j:]]
        elif mode == EMB_A or mode == EMB_C:
            # Two groups of one kind are in size order, not pool order.
            pairs += [
                (i, p, q) if p.position < q.position else (i, q, p) for p in first for q in second
            ]
        else:
            # An EMB_B class's first group is its Fano side, which the pool
            # puts before every involution block.
            pairs += [(i, p, q) for p in first for q in second]
    # Each pair's sort key is one int, which sorts as the tuple (rank of its
    # class's (b2, b3, mode), label rank, label rank) would: ``width`` is above
    # every label rank.  Classes share their groups, so each is read once.
    groups = {id(g): g for c in classes for g in c.groups}
    entries = [e for g in groups.values() for e in g]
    width = 1 + max([e.order for e in entries], default=0)
    ranks = {key: i for i, key in enumerate(sorted({c[:3] for c in classes}))}
    bases = [ranks[c[:3]] * width for c in classes]
    keys = [(bases[i] + p.order) * width + q.order for i, p, q in pairs]
    # Sorting indices on the keys alone never compares two entries.
    return [pairs[k] for k in sorted(range(len(keys)), key=keys.__getitem__)], entries


def _enumerate(
    spaces: Sequence[str], fano: Iterable[FanoFamily], nikulin: NikulinCatalog
) -> list[G2Record]:
    """The records of the pair-spaces ``spaces`` together, in ``_record_order``."""
    classes = _census(fano, nikulin, spaces)
    heads = [c[:4] for c in classes]
    return [
        G2Record(*heads[i], (p.block, q.block))
        for i, p, q in _record_order(classes)[0]
    ]


def enumerate_emb(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """All unordered Fano/involution pairs with (rank + l_bound) sum below 20."""
    return _enumerate((EMB_A, EMB_B, EMB_C), fano, nikulin)


def enumerate_mirror(nikulin: NikulinCatalog) -> list[G2Record]:
    """One record per mirror pair (r, a, delta) / (20 - r, a, delta)."""
    return _enumerate((MIRROR,), (), nikulin)


def enumerate_seq(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """The quartic blow-up block against every partner with size sum below 20."""
    return _enumerate((SEQ,), fano, nikulin)


def enumerate_large_rank(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """(18,0,0) and (17,1,1) against every rank-1 block: 38 over the complete catalogs."""
    return _enumerate((LARGE_RANK,), fano, nikulin)


def distinct_betti(rows: Iterable[G2Record | PairClass]) -> tuple[tuple[int, int], ...]:
    """Deduplicated (b2, b3) pairs in lexicographic order."""
    return tuple(sorted({(r.b2, r.b3) for r in rows}))


class JoyceComparison(NamedTuple):
    """Overlap statistics against the earlier construction's Betti pairs."""

    overlap_count: int
    new_count: int
    mod4_violations: int


def compare_joyce(
    rows: Sequence[G2Record | PairClass], joyce: JoyceCatalog | None
) -> JoyceComparison | None:
    """Compare the distinct pairs of records or pair classes against the comparison set.

    Returns None (not available) when no comparison catalog is loaded.
    ``mod4_violations`` counts pairs of blocks — not distinct Betti pairs —
    whose b2 + b3 is not 3 mod 4.
    """
    if joyce is None:
        return None
    ours = set(distinct_betti(rows))
    theirs = set(joyce)
    violations = sum(r.weight for r in rows if (r.b2 + r.b3) % 4 != 3)
    return JoyceComparison(
        overlap_count=len(ours & theirs),
        new_count=len(ours - theirs),
        mod4_violations=violations,
    )


class PairCounts(NamedTuple):
    """Pair totals under the three counting conventions.

    A pair is diagonal when both blocks are equal (a family or involution
    class matched with itself).
    """

    clause_a: int
    clause_b: int
    clause_c: int
    diagonal: int

    @property
    def unordered_with_self(self) -> int:
        return self.clause_a + self.clause_b + self.clause_c

    @property
    def unordered_no_self(self) -> int:
        return self.unordered_with_self - self.diagonal

    @property
    def ordered(self) -> int:
        return 2 * self.unordered_with_self - self.diagonal


def count_matched_pairs(emb_rows: Iterable[G2Record | PairClass]) -> PairCounts:
    """Tally the emb records or pair classes by clause and count self-pairs."""
    by_mode = {EMB_A: 0, EMB_B: 0, EMB_C: 0}
    diagonal = 0
    for r in emb_rows:
        if r.mode not in by_mode:
            raise ValueError(f"count_matched_pairs expects EMB_* rows, got {r.mode}")
        by_mode[r.mode] += r.weight
        diagonal += r.diagonal
    return PairCounts(
        clause_a=by_mode[EMB_A],
        clause_b=by_mode[EMB_B],
        clause_c=by_mode[EMB_C],
        diagonal=diagonal,
    )
