"""Enumeration of matched block pairs and their 7-manifold Betti numbers.

Gluing two blocks along a K3 fibre with an ``n``-dimensional common
polarizing intersection gives a closed 7-manifold with

    b2(M) = n + d1 + d2,
    b3(M) = b3_bar1 + b3_bar2 + b2(M) - 2n + 23.

Every enumeration mode here uses n = 0 and a clause that guarantees the
matching condition:

* ``EMB_A``   Fano x Fano with b2(V1) + b2(V2) < 10;
* ``EMB_B``   Fano x involution with 2 b2(V1) + r2 + a2 < 20;
* ``EMB_C``   involution x involution with r1 + r2 + a1 + a2 < 20;
* ``MIRROR``  the 36 mirror pairs (r,a,delta) / (20-r,a,delta);
* ``SEQ``     the quartic blow-up block against any Fano with b2 < 9 or
              involution class with r + a < 18;
* ``LARGE_RANK``  (18,0,0) or (17,1,1) against a rank-1 partner: the 17
              rank-1 Fano families, the (1,1,1) class, or the quartic
              blow-up block.

Each enumeration call pools its blocks, building each catalog row into a
block once, and decides the matching certificate once per pair of lattice
classes ``(rank, l_bound, triple)``: the certificate reads nothing else of
a block, so every pair in those classes shares it.

Each record's Betti numbers are computed twice — mode closed form and the
gluing formula — and each record's certificate must carry condition A.
Both identities are enforced by explicit checks that raise
``IdentityError`` in every build, ``python -O`` included; the identities
are structural, so a failure means a transcription bug.  ``GENERIC`` mode
(user-supplied n > 0) is available via ``generic_record`` but never
enumerated automatically: realizing a positive-dimensional matching
requires choices the closed forms do not determine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Iterable, Sequence

from .building_blocks import (
    BuildingBlock,
    fano_block,
    involution_block,
    open_betti,
    quartic_blowup_block,
)
from .catalog import (
    CatalogError,
    FanoCatalog,
    FanoFamily,
    JoyceCatalog,
    NikulinCatalog,
    NikulinTriple,
    mirror_pairs,
)
from .embedding import MatchCertificate, matching_condition
from .lattice_core import LatticeError

EMB_A = "EMB_A"
EMB_B = "EMB_B"
EMB_C = "EMB_C"
MIRROR = "MIRROR"
SEQ = "SEQ"
LARGE_RANK = "LARGE_RANK"
GENERIC = "GENERIC"
MODES: Final = (EMB_A, EMB_B, EMB_C, MIRROR, SEQ, LARGE_RANK, GENERIC)

UNVERIFIED = "UNVERIFIED"


class IdentityError(RuntimeError):
    """A structural identity failed for an enumerated record.

    Raised when a record's closed form and gluing formula disagree, or when
    a pair admitted by its clause lacks condition A.  Either is a bug in
    the program, never in the catalog data.
    """


@dataclass(frozen=True)
class GlueResult:
    """Betti numbers of one gluing, with the rank-condition outcome."""

    b2: int
    b3: int
    rank_condition_ok: bool

    @property
    def betti(self) -> tuple[int, int]:
        return (self.b2, self.b3)

    @property
    def flags(self) -> tuple[str, ...]:
        return () if self.rank_condition_ok else (UNVERIFIED,)


@dataclass(frozen=True)
class G2Record:
    """One matched pair of blocks and the resulting (b2, b3)."""

    b2: int
    b3: int
    mode: str
    n: int
    certificate: MatchCertificate
    blocks: tuple[BuildingBlock, BuildingBlock]
    flags: tuple[str, ...] = ()

    @property
    def betti(self) -> tuple[int, int]:
        return (self.b2, self.b3)

    @property
    def simply_connected(self) -> bool:
        return all(b.simply_connected for b in self.blocks)

    @property
    def verified(self) -> bool:
        return UNVERIFIED not in self.flags


def glue_betti(block1: BuildingBlock, block2: BuildingBlock, n: int = 0) -> GlueResult:
    """Betti numbers of the glued 7-manifold for an n-dimensional matching.

    The result is flagged rather than rejected when the rank condition
    b2(W1) - d1 + b2(W2) - d2 <= 22 fails, since the gluing formulas are
    still well-defined numbers; callers must treat such results as
    unverified.
    """
    if n < 0:
        raise LatticeError(f"matching dimension n must be >= 0, got {n}")
    b2 = n + block1.d + block2.d
    b3 = block1.b3_bar + block2.b3_bar + b2 - 2 * n + 23
    open1 = open_betti(block1)[0]
    open2 = open_betti(block2)[0]
    ok = (open1 - block1.d) + (open2 - block2.d) <= 22
    return GlueResult(b2=b2, b3=b3, rank_condition_ok=ok)


class _Pool:
    """The blocks and certificates of one enumeration call.

    Each catalog row is built into a block at most once.  A certificate
    depends only on the lattice class ``(rank, l_bound, triple key)`` of
    each block, the only fields ``matching_condition`` reads, so it is
    decided once per ordered pair of classes and shared by every block
    pair in them.  ``BuildingBlock`` equality ignores ``triple``, hence
    the key spells the triple out.  A pool lives only as long as the call
    that made it.
    """

    def __init__(self) -> None:
        self._blocks: dict[FanoFamily | NikulinTriple, BuildingBlock] = {}
        self._certificates: dict[tuple, MatchCertificate] = {}

    def fano(self, f: FanoFamily) -> BuildingBlock:
        block = self._blocks.get(f)
        if block is None:
            block = self._blocks[f] = fano_block(f)
        return block

    def involution(self, t: NikulinTriple) -> BuildingBlock:
        block = self._blocks.get(t)
        if block is None:
            block = self._blocks[t] = involution_block(t)
        return block

    def certificate(self, b1: BuildingBlock, b2: BuildingBlock) -> MatchCertificate:
        t1, t2 = b1.triple, b2.triple
        key = (
            b1.rank,
            b1.l_bound,
            None if t1 is None else t1.key,
            b2.rank,
            b2.l_bound,
            None if t2 is None else t2.key,
        )
        cert = self._certificates.get(key)
        if cert is None:
            cert = self._certificates[key] = matching_condition(b1, b2)
        return cert


def _record(
    mode: str,
    closed: tuple[int, int],
    block1: BuildingBlock,
    block2: BuildingBlock,
    pool: _Pool,
) -> G2Record:
    """The record of one admitted pair, after both of its identity checks."""
    certificate = pool.certificate(block1, block2)
    if not certificate.has_cond_a:
        raise IdentityError(
            f"{mode} pair lost condition A: {block1.label} x {block2.label}"
        )
    glue = glue_betti(block1, block2, 0)
    if glue.betti != closed:
        raise IdentityError(
            f"closed-form/glue disagreement in {mode} for "
            f"{block1.label} x {block2.label}: closed {closed}, glued {glue.betti}"
        )
    return G2Record(
        b2=closed[0],
        b3=closed[1],
        mode=mode,
        n=0,
        certificate=certificate,
        blocks=(block1, block2),
        flags=glue.flags,
    )


def _sorted_records(records: list[G2Record]) -> list[G2Record]:
    return sorted(
        records,
        key=lambda r: (r.b2, r.b3, r.mode, r.blocks[0].label, r.blocks[1].label),
    )


def enumerate_emb(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """All unordered pairs admissible under the three numeric clauses.

    Every admissible pair also passes the numeric embedding criterion, so
    each record's certificate is checked to carry condition A.
    """
    pool = _Pool()
    fanos = [(f, pool.fano(f)) for f in fano]
    involutions = [(t, pool.involution(t)) for t in nikulin if t.key != (10, 10, 0)]
    records: list[G2Record] = []

    for i, (f1, blk1) in enumerate(fanos):
        for f2, blk2 in fanos[i:]:
            if f1.b2 + f2.b2 < 10:
                closed = (0, f1.g + f2.g + 27)
                records.append(_record(EMB_A, closed, blk1, blk2, pool))

    for f1, blk1 in fanos:
        for t2, blk2 in involutions:
            if 2 * f1.b2 + t2.r + t2.a < 20:
                closed = (2 + t2.r - t2.a, f1.g - t2.r - 3 * t2.a + 71)
                records.append(_record(EMB_B, closed, blk1, blk2, pool))

    for i, (t1, blk1) in enumerate(involutions):
        for t2, blk2 in involutions[i:]:
            if t1.r + t1.a + t2.r + t2.a < 20:
                closed = (
                    4 + t1.r + t2.r - t1.a - t2.a,
                    115 - t1.r - t2.r - 3 * (t1.a + t2.a),
                )
                records.append(_record(EMB_C, closed, blk1, blk2, pool))

    return _sorted_records(records)


def enumerate_mirror(nikulin: NikulinCatalog) -> list[G2Record]:
    """One record per mirror pair: (b2, b3) = (24 - 2a, 95 - 6a)."""
    pool = _Pool()
    records: list[G2Record] = []
    for t1, t2 in mirror_pairs(nikulin):
        closed = (24 - 2 * t1.a, 95 - 6 * t1.a)
        rec = _record(MIRROR, closed, pool.involution(t1), pool.involution(t2), pool)
        if rec.b3 != 3 * rec.b2 + 23:
            raise IdentityError(
                f"mirror pair {t1.key}, {t2.key} gives {rec.betti}, off the line b3 = 3 b2 + 23"
            )
        records.append(rec)
    return _sorted_records(records)


def enumerate_seq(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """The quartic blow-up block against every admissible partner.

    Partners: Fano families with b2 < 9 (giving (3, g + 52)) and
    involution classes with r + a < 18 (giving (5+r-a, 96-r-3a)).
    """
    pool = _Pool()
    quartic = quartic_blowup_block()
    records: list[G2Record] = []
    for f in fano:
        if f.b2 < 9:
            records.append(_record(SEQ, (3, f.g + 52), quartic, pool.fano(f), pool))
    for t in nikulin:
        if t.r + t.a < 18:
            closed = (5 + t.r - t.a, 96 - t.r - 3 * t.a)
            records.append(_record(SEQ, closed, quartic, pool.involution(t), pool))
    return _sorted_records(records)


def enumerate_large_rank(fano: FanoCatalog, nikulin: NikulinCatalog) -> list[G2Record]:
    """(18,0,0) and (17,1,1) against each rank-1 partner.

    Partners: every rank-1 Fano family, the (1,1,1) involution class, and
    the quartic blow-up block — 38 records over the complete catalogs.
    """
    anchors = []
    for key in ((18, 0, 0), (17, 1, 1)):
        t = nikulin.find(*key)
        if t is None:
            raise CatalogError(f"large-rank enumeration needs triple {key} in the catalog")
        anchors.append(t)
    one_one_one = nikulin.find(1, 1, 1)
    if one_one_one is None:
        raise CatalogError("large-rank enumeration needs triple (1, 1, 1) in the catalog")
    pool = _Pool()
    quartic = quartic_blowup_block()
    records: list[G2Record] = []

    for t1 in anchors:
        blk1 = pool.involution(t1)
        r1, a1 = t1.r, t1.a
        for f in fano.rank_one():
            closed = (2 + r1 - a1, f.g - r1 - 3 * a1 + 71)
            records.append(_record(LARGE_RANK, closed, blk1, pool.fano(f), pool))
        closed = (4 + r1 - a1, 111 - r1 - 3 * a1)
        records.append(_record(LARGE_RANK, closed, blk1, pool.involution(one_one_one), pool))
        closed = (5 + r1 - a1, 96 - r1 - 3 * a1)
        records.append(_record(LARGE_RANK, closed, blk1, quartic, pool))
    return _sorted_records(records)


def generic_record(block1: BuildingBlock, block2: BuildingBlock, n: int) -> G2Record:
    """A user-specified matching of dimension n (no closed form checked)."""
    cert = matching_condition(block1, block2)
    glue = glue_betti(block1, block2, n)
    return G2Record(
        b2=glue.b2,
        b3=glue.b3,
        mode=GENERIC,
        n=n,
        certificate=cert,
        blocks=(block1, block2),
        flags=glue.flags,
    )


def distinct_betti(records: Iterable[G2Record]) -> tuple[tuple[int, int], ...]:
    """Deduplicated (b2, b3) pairs in lexicographic order."""
    return tuple(sorted({(r.b2, r.b3) for r in records}))


@dataclass(frozen=True)
class JoyceComparison:
    """Overlap statistics against the earlier construction's Betti pairs."""

    overlap_count: int
    new_count: int
    mod4_violations: int


def compare_joyce(
    records: Sequence[G2Record], joyce: JoyceCatalog | None
) -> JoyceComparison | None:
    """Compare distinct record pairs against the comparison set.

    Returns None (not available) when no comparison catalog is loaded.
    ``mod4_violations`` counts records — not distinct pairs — whose
    b2 + b3 is not 3 mod 4.
    """
    if joyce is None:
        return None
    ours = set(distinct_betti(records))
    theirs = set(joyce)
    violations = sum(1 for r in records if (r.b2 + r.b3) % 4 != 3)
    return JoyceComparison(
        overlap_count=len(ours & theirs),
        new_count=len(ours - theirs),
        mod4_violations=violations,
    )


@dataclass(frozen=True)
class PairCounts:
    """Pair totals under the three counting conventions.

    A record is diagonal when both block references are equal (a family
    or involution class matched with itself).
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


def count_matched_pairs(emb_records: Sequence[G2Record]) -> PairCounts:
    """Tally enumerate_emb output by clause and count self-pairs."""
    by_mode = {EMB_A: 0, EMB_B: 0, EMB_C: 0}
    diagonal = 0
    for r in emb_records:
        if r.mode not in by_mode:
            raise LatticeError(f"count_matched_pairs expects EMB_* records, got {r.mode}")
        by_mode[r.mode] += 1
        if r.blocks[0] == r.blocks[1]:
            diagonal += 1
    return PairCounts(
        clause_a=by_mode[EMB_A],
        clause_b=by_mode[EMB_B],
        clause_c=by_mode[EMB_C],
        diagonal=diagonal,
    )
