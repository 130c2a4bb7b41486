"""Primitive-embedding sufficiency tests and matching certificates.

The numeric criterion is the classical one for primitively embedding an
even nondegenerate lattice ``N`` into an even unimodular indefinite
lattice ``E``: the signature of ``N`` must fit componentwise into that of
``E`` and ``l(N) + rk N < rk E`` must hold, where ``l(N)`` is the minimal
number of generators of the discriminant group.  When in addition
``l(N) + rk N < rk E - 2`` the embedding is unique up to isometry.  The
criterion is *sufficient only*: INCONCLUSIVE never proves non-existence.

On top of the numeric route two special-case rules cover block pairs
that are known to embed even though the inequality fails: mirror pairs of
invariant lattices (the relation itself is ``catalog.mirror_key``), and
the two rank-17/18 lattices paired with any rank-one lattice.
"""

from __future__ import annotations

from typing import Final, Iterable, NamedTuple, TYPE_CHECKING

from .catalog import EMPTY, fixed_locus, mirror_key
from .lattice_core import LatticeError, Signature, standard_lattice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .building_blocks import BuildingBlock

SUFFICIENT: Final = "SUFFICIENT"
SUFFICIENT_UNIQUE: Final = "SUFFICIENT_UNIQUE"
INCONCLUSIVE: Final = "INCONCLUSIVE"

COND_A: Final = "COND_A"
COND_B: Final = "COND_B"
BOTH: Final = "BOTH"
NONE: Final = "NONE"


class EmbeddingVerdict(NamedTuple):
    """Outcome of a sufficiency test plus the rule that produced it."""

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

    @property
    def has_cond_b(self) -> bool:
        return self.condition in (COND_B, BOTH)


def nikulin_sufficient(
    sig_n: Signature, rk_n: int, l_n: int, sig_e: Signature, rk_e: int
) -> EmbeddingVerdict:
    """Numeric sufficiency test for a primitive embedding of N into E."""
    if rk_n < 1:
        raise LatticeError("embedded lattice must have positive rank")
    if l_n > rk_n:
        raise LatticeError(f"l(N) = {l_n} cannot exceed rk N = {rk_n}")
    fits = (
        sig_n.t_plus <= sig_e.t_plus
        and sig_n.t_minus <= sig_e.t_minus
        and l_n + rk_n < rk_e
    )
    if not fits:
        return EmbeddingVerdict(INCONCLUSIVE, "numeric")
    if l_n + rk_n < rk_e - 2:
        return EmbeddingVerdict(SUFFICIENT_UNIQUE, "numeric")
    return EmbeddingVerdict(SUFFICIENT, "numeric")


# Signature and rank of 2*E8_NEG + 2*H, computed once from its Gram matrix.
_AMBIENT_SIG: Final = standard_lattice("TWO_E8_TWO_H").signature()
_AMBIENT_RANK: Final = sum(_AMBIENT_SIG)


def embeds_in_2e8_2h(parts: Iterable[tuple[int, int, Signature]]) -> EmbeddingVerdict:
    """Numeric sufficiency for embedding a direct sum into 2*E8_NEG + 2*H.

    ``parts`` lists ``(rank, l_bound, signature)`` per summand; ranks,
    l-values and signatures are additive over a direct sum.  The signature
    gate is taken from the ambient Gram matrix itself (t+ <= 2, t- <= 18).
    """
    rk_total = 0
    l_total = 0
    plus = minus = 0
    for rk, l, sig in parts:
        rk_total += rk
        l_total += l
        plus += sig.t_plus
        minus += sig.t_minus
    sig_n = Signature(plus, minus)
    return nikulin_sufficient(sig_n, rk_total, l_total, _AMBIENT_SIG, _AMBIENT_RANK)


def _mirror_pair_rule(b1: "BuildingBlock", b2: "BuildingBlock") -> str | None:
    """Mirror pairs of invariant lattices embed with hyperbolic complements.

    Fires for two non-symplectic blocks whose triples are mirror partners
    in the sense of ``catalog.mirror_key``.
    """
    t1, t2 = b1.triple, b2.triple
    if t1 is not None and t2 is not None and t2.key == mirror_key(t1):
        return "mirror-pair"
    return None


# The involution classes of 2*E8_NEG + H and 2*E8_NEG + <2>.
LARGE_RANK_ANCHORS: Final = ((18, 0, 0), (17, 1, 1))


def _large_rank_rank_one_rule(b1: "BuildingBlock", b2: "BuildingBlock") -> str | None:
    """The rank-18 and rank-17 lattices 2*E8_NEG + H and 2*E8_NEG + <2>
    embed into 2*E8_NEG + H; their sum with any even rank-one lattice
    therefore embeds into the full 2*E8_NEG + 2*H."""
    for big, small in ((b1, b2), (b2, b1)):
        t = big.triple
        if t is not None and t.key in LARGE_RANK_ANCHORS and small.rank == 1:
            return "large-rank-rank-one"
    return None


def matching_condition(b1: "BuildingBlock", b2: "BuildingBlock") -> MatchCertificate:
    """Certificate for the two known matching conditions of a block pair.

    Condition A holds when the two polarizing lattices (signatures
    (1, r-1), l bounded per block kind) numerically embed into
    2*E8_NEG + 2*H, or when the mirror-pair or large-rank rule fires.
    Condition B is the rank bound max(r1, r2) <= 10.  Blocks of the
    fixed-point-free non-symplectic class (10,10,0) are rejected.
    """
    for b in (b1, b2):
        if b.triple is not None and fixed_locus(b.triple).kind == EMPTY:
            raise LatticeError(
                "non-symplectic type (10,10,0) admits no building block (empty fixed locus)"
            )
    verdict = embeds_in_2e8_2h(
        (b.rank, b.l_bound, Signature(1, b.rank - 1)) for b in (b1, b2)
    )
    if not verdict.sufficient:
        fired = _mirror_pair_rule(b1, b2) or _large_rank_rank_one_rule(b1, b2)
        if fired is not None:
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

