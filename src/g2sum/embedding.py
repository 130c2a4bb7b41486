"""The matching certificate of a block pair: does the pair's polarizing
lattice embed primitively into the gluing ambient 2*E8(-1) + 2*U?

Each block's polarizing lattice has signature (1, r - 1), so the sum ``N``
of a pair has rank ``rk = r1 + r2``, signature (2, rk - 2) and
``l(N) <= l1 + l2``, where ``l`` is the minimal number of generators of the
discriminant group.  The ambient is even unimodular of signature (2, 18)
and rank 20.  Nikulin's numeric criterion (1979, Thm 1.12.2) embeds ``N``
primitively when its signature fits componentwise and the pair's *size*
``rk + l1 + l2`` is below 20, uniquely up to isometry when the size is
below 18.  The criterion is *sufficient only*: INCONCLUSIVE never proves
non-existence.

Where it is inconclusive, two special-case rules cover block pairs that
are known to embed: mirror pairs of invariant lattices (the relation
itself is ``catalog.mirror_key``), and the two rank-17/18 lattices paired
with any rank-one lattice.
"""

from __future__ import annotations

from typing import Final, NamedTuple

from .building_blocks import BuildingBlock
from .catalog import EMPTY, fixed_locus, mirror_key
from .lattice_core import parse_lattice_expr

SUFFICIENT: Final = "SUFFICIENT"
SUFFICIENT_UNIQUE: Final = "SUFFICIENT_UNIQUE"
INCONCLUSIVE: Final = "INCONCLUSIVE"

COND_A: Final = "COND_A"
COND_B: Final = "COND_B"
BOTH: Final = "BOTH"
NONE: Final = "NONE"


class EmbeddingVerdict(NamedTuple):
    """Outcome of the condition-A decision plus the rule that produced it."""

    status: str
    rule: str

    @property
    def sufficient(self) -> bool:
        return self.status in (SUFFICIENT, SUFFICIENT_UNIQUE)


class MatchCertificate(NamedTuple):
    """Which matching conditions a block pair is known to satisfy.

    ``condition`` is COND_A, COND_B, BOTH or NONE.  ``verdict_a`` explains
    the condition-A decision (numeric or special rule).
    """

    condition: str
    verdict_a: EmbeddingVerdict

    @property
    def has_cond_a(self) -> bool:
        return self.condition in (COND_A, BOTH)


# Signature and rank of 2*E8(-1) + 2*U, read once at import from the parse,
# which sums its terms' signatures.
_AMBIENT_SIG: Final = parse_lattice_expr("2*E8(-1) + 2*U").signature()
_AMBIENT_RANK: Final = sum(_AMBIENT_SIG)


def _mirror_pair_rule(b1: BuildingBlock, b2: BuildingBlock) -> str | None:
    """Mirror pairs of invariant lattices embed with hyperbolic complements.

    Fires for two non-symplectic blocks whose triples are mirror partners
    in the sense of ``catalog.mirror_key``.
    """
    t1, t2 = b1.triple, b2.triple
    if t1 is not None and t2 is not None and t2.key == mirror_key(t1):
        return "mirror-pair"
    return None


# The involution classes with catalog sources U + 2*E8(-1) and 2*E8(-1) + <2>.
LARGE_RANK_ANCHORS: Final = ((18, 0, 0), (17, 1, 1))


def _large_rank_rank_one_rule(b1: BuildingBlock, b2: BuildingBlock) -> str | None:
    """The rank-18 and rank-17 lattices U + 2*E8(-1) and 2*E8(-1) + <2>
    embed into U + 2*E8(-1); their sum with any even rank-one lattice
    therefore embeds into the full 2*E8(-1) + 2*U."""
    for big, small in ((b1, b2), (b2, b1)):
        t = big.triple
        if t is not None and t.key in LARGE_RANK_ANCHORS and small.rank == 1:
            return "large-rank-rank-one"
    return None


def matching_condition(b1: BuildingBlock, b2: BuildingBlock) -> MatchCertificate:
    """Certificate for the two known matching conditions of a block pair.

    Condition A holds when the pair passes the numeric criterion of the
    module docstring (l bounded per block kind), or when the mirror-pair
    or large-rank rule fires.  Condition B is the rank bound
    max(r1, r2) <= 10.  Misuse raises ``ValueError``: a block of the free
    class (10,10,0), a pair of rank 0, or l(N) above rk N.
    """
    for b in (b1, b2):
        if b.triple is not None and fixed_locus(b.triple).kind == EMPTY:
            raise ValueError(
                "non-symplectic type (10,10,0) admits no building block (empty fixed locus)"
            )
    rk = b1.rank + b2.rank
    l = b1.l_bound + b2.l_bound
    if rk < 1:
        raise ValueError("embedded lattice must have positive rank")
    if l > rk:
        raise ValueError(f"l(N) = {l} cannot exceed rk N = {rk}")
    size = rk + l
    # The sum of the two (1, r - 1) lattices has signature (2, rk - 2).
    if 2 <= _AMBIENT_SIG.t_plus and rk - 2 <= _AMBIENT_SIG.t_minus and size < _AMBIENT_RANK:
        status = SUFFICIENT_UNIQUE if size < _AMBIENT_RANK - 2 else SUFFICIENT
        verdict = EmbeddingVerdict(status, "numeric")
    else:
        fired = _mirror_pair_rule(b1, b2) or _large_rank_rank_one_rule(b1, b2)
        if fired is None:
            verdict = EmbeddingVerdict(INCONCLUSIVE, "numeric")
        else:
            verdict = EmbeddingVerdict(SUFFICIENT, fired)
    cond_b = max(b1.rank, b2.rank) <= 10
    if verdict.sufficient and cond_b:
        condition = BOTH
    elif verdict.sufficient:
        condition = COND_A
    elif cond_b:
        condition = COND_B
    else:
        condition = NONE
    return MatchCertificate(condition=condition, verdict_a=verdict)

