"""Enumeration of matched block pairs and their 7-manifold Betti numbers.

Gluing two blocks along a K3 fibre, with polarizing lattices that meet
only in zero, gives a closed 7-manifold with

    b2(M) = d1 + d2,
    b3(M) = b3_bar1 + b3_bar2 + b2(M) + 23.

Every enumeration here is a *pair-space*: a set of block pairs drawn from
one pool, built once per census in catalog order (each Fano family, each
involution class but the fixed-point-free (10,10,0), then the quartic
blow-up block).  A block's *size* is ``rank + l_bound``; a pair of
total size below 20 passes the numeric embedding criterion.

* ``emb``         every unordered pool pair of size below 20, the quartic
                  aside; its clause ``EMB_A``/``EMB_B``/``EMB_C`` is the
                  pair's kinds: Fano x Fano, Fano x involution, involution
                  x involution;
* ``MIRROR``      the pairs of ``catalog.mirror_pairs``, which must also
                  satisfy b3 = 3 b2 + 23;
* ``SEQ``         the quartic block against every pool block, size below 20;
* ``LARGE_RANK``  (18,0,0) and (17,1,1) against every rank-1 block: the
                  rank-1 Fano families, the (1,1,1) class and the quartic.

A pair's outcome (its clause, certificate, ``glue_betti`` result and
identity checks) reads only each block's kind, lattice class
``(rank, l_bound, triple)``, gluing inputs ``(b2_bar, b3_bar, d)`` and
catalog share ``(d, e)``: its *outcome class*.  The *census* is the one
loop that decides outcomes.  It groups one pool by outcome class, pairs the
groups under each requested space's predicate, a group possibly with
itself, and decides each admitted pair of groups once, from their first
members; the certificate, which reads only the lattice classes,
is decided once per unordered pair of those over all the spaces.  Each
decided ``PairClass`` carries its *weight*, the number of block pairs it
stands for: m * m' for two groups of m and m' blocks, m (m + 1) / 2 for a
group of m paired with itself, m of them *diagonal* (a block with itself).

Two readers sit on the census.  ``enumerate_*`` expand each class into its
``G2Record``s in a fixed order.  ``distinct_betti``, ``count_matched_pairs``
and ``compare_joyce`` read weighted rows, a class or a record, which is a
row of weight 1, so the reports never build the records.

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

from typing import Final, Iterable, NamedTuple, Sequence

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
    CatalogError,
    FanoCatalog,
    FanoFamily,
    JoyceCatalog,
    NikulinCatalog,
    fixed_locus,
    mirror_pairs,
)
from .embedding import LARGE_RANK_ANCHORS, MatchCertificate, matching_condition
from .lattice_core import LatticeError

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
    def betti(self) -> tuple[int, int]:
        return (self.b2, self.b3)

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

    ``lattice`` and ``outcome`` are small ints, unique within one census, for
    the block's lattice class and for everything a pair's outcome reads of
    the block; ``position`` is its place in the pool and ``order`` its
    label's rank among the pool's labels.
    """

    block: BuildingBlock
    size: int
    share: tuple[int, int]
    lattice: int
    outcome: int
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


_CLAUSES: Final = {
    (KIND_FANO, KIND_FANO): EMB_A,
    (KIND_FANO, KIND_INVOLUTION): EMB_B,
    (KIND_INVOLUTION, KIND_INVOLUTION): EMB_C,
}


def _census(
    fano: Iterable[FanoFamily], nikulin: NikulinCatalog, spaces: Sequence[str]
) -> dict[str, list[PairClass]]:
    """The decided pair classes of each of ``spaces``, all drawn from one pool.

    The spaces are decided in the order given, so an identity failure is
    reported for the first space that has one.
    """
    made = {f: (fano_block(f), (0, f.g + 2)) for f in fano}
    for t in nikulin:
        if fixed_locus(t).kind != EMPTY:
            made[t] = (involution_block(t), (2 + t.r - t.a, 46 - t.r - 3 * t.a))
    made_quartic = (quartic_blowup_block(), (3, 27))
    labels = sorted({block.label for block, _ in (*made.values(), made_quartic)})
    order = {label: i for i, label in enumerate(labels)}
    ids: dict[tuple, int] = {}

    def entry(position: int, block: BuildingBlock, share: tuple[int, int]) -> _Entry:
        triple = block.triple
        lattice = (block.rank, block.l_bound, None if triple is None else triple.key)
        outcome = (block.kind, lattice, block.b2_bar, block.b3_bar, block.d, share)
        return _Entry(
            block,
            block.rank + block.l_bound,
            share,
            ids.setdefault(lattice, len(ids)),
            ids.setdefault(outcome, len(ids)),
            position,
            order[block.label],
        )

    pool = {row: entry(i, *block_share) for i, (row, block_share) in enumerate(made.items())}
    members: dict[int, list[_Entry]] = {}
    for e in pool.values():
        members.setdefault(e.outcome, []).append(e)
    group_of = {outcome: tuple(entries) for outcome, entries in members.items()}
    groups = list(group_of.values())  # in pool order of their first members
    quartic = (entry(len(pool), *made_quartic),)

    def group_pairs(space: str) -> list[tuple[tuple[_Entry, ...], tuple[_Entry, ...]]]:
        # Every member of a group has the group's size and rank, so a
        # predicate on two groups' first members admits all their pairs.
        if space == "emb":
            return [
                (g, h)
                for i, g in enumerate(groups)
                for h in groups[i:]
                if g[0].size + h[0].size < 20
            ]
        if space == SEQ:
            return [(quartic, h) for h in groups if quartic[0].size + h[0].size < 20]
        if space == MIRROR:
            return [
                (group_of[pool[t1].outcome], group_of[pool[t2].outcome])
                for t1, t2 in mirror_pairs(nikulin)
            ]
        found = {key: nikulin.find(*key) for key in (*LARGE_RANK_ANCHORS, (1, 1, 1))}
        for key, t in found.items():
            if t is None:
                raise CatalogError(f"large-rank enumeration needs triple {key} in the catalog")
        partners = [h for h in (*groups, quartic) if h[0].block.rank == 1]
        return [
            (group_of[pool[found[key]].outcome], h) for key in LARGE_RANK_ANCHORS for h in partners
        ]

    # A class's outcome is decided from the first member of each group.  A
    # certificate reads only the two lattice classes, and its value not
    # their order, so it is decided, and checked, once per unordered pair of
    # them across all the spaces.
    certificates: dict[tuple[int, int], MatchCertificate] = {}
    census: dict[str, list[PairClass]] = {}
    for space in spaces:
        emb = space == "emb"
        classes = census[space] = []
        for first, second in group_pairs(space):
            p, q = first[0], second[0]
            block1, block2 = p.block, q.block
            mode = _CLAUSES[block1.kind, block2.kind] if emb else space
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
            if space == MIRROR and b3 != 3 * b2 + 23:
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
    return census


def _enumerate(space: str, fano: Sequence[FanoFamily], nikulin: NikulinCatalog) -> list[G2Record]:
    """The records of one pair-space, sorted on (b2, b3, mode, label ranks).

    An emb pair puts its earlier pool block first; the other spaces put
    their fixed side first: the quartic, the mirror triple with r <= 10,
    the large-rank anchor.
    """
    classes = _census(fano, nikulin, (space,))[space]
    # Each record's sort key is one int, which sorts as the tuple (rank of
    # its class's (b2, b3, mode), label rank, label rank) would: every label
    # rank is below ``width``, the pool's size bound.
    width = len(fano) + len(nikulin) + 1
    ranks = {key: i for i, key in enumerate(sorted({c[:3] for c in classes}))}
    records: list[G2Record] = []
    keys: list[int] = []
    emb = space == "emb"
    for b2, b3, mode, certificate, _, _, (first, second) in classes:
        if first is second:
            pairs = [(p, q) for i, p in enumerate(first) for q in first[i:]]
        elif emb:
            pairs = [(p, q) if p.position < q.position else (q, p) for p in first for q in second]
        else:
            pairs = [(p, q) for p in first for q in second]
        base = ranks[b2, b3, mode] * width
        for p, q in pairs:
            records.append(G2Record(b2, b3, mode, certificate, (p.block, q.block)))
            keys.append((base + p.order) * width + q.order)
    # Sorting indices on the keys alone never compares two records.
    return [records[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def enumerate_emb(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """All unordered Fano/involution pairs with (rank + l_bound) sum below 20."""
    return _enumerate("emb", fano, nikulin)


def enumerate_mirror(nikulin: NikulinCatalog) -> list[G2Record]:
    """One record per mirror pair (r, a, delta) / (20 - r, a, delta)."""
    return _enumerate(MIRROR, (), nikulin)


def enumerate_seq(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """The quartic blow-up block against every partner with size sum below 20."""
    return _enumerate(SEQ, fano, nikulin)


def enumerate_large_rank(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """(18,0,0) and (17,1,1) against every rank-1 block: 38 over the complete catalogs."""
    return _enumerate(LARGE_RANK, fano, nikulin)


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
            raise LatticeError(f"count_matched_pairs expects EMB_* rows, got {r.mode}")
        by_mode[r.mode] += r.weight
        diagonal += r.diagonal
    return PairCounts(
        clause_a=by_mode[EMB_A],
        clause_b=by_mode[EMB_B],
        clause_c=by_mode[EMB_C],
        diagonal=diagonal,
    )
