"""Building blocks: closed Betti numbers, with a cross-check.

A building block is a smooth projective threefold fibred by K3 surfaces,
carrying a polarizing lattice of rank ``rank`` whose discriminant group
needs at most ``l_bound`` generators.  Two production routes:

* ``involution_block`` — resolved quotient of a K3 surface by a
  non-symplectic involution with invariant-lattice class (r, a, delta),
  times the base curve trick.  Closed forms:
      b2 = 3 + 2r - a,   b3 = 2 (22 - r - a),   d = 2 + r - a.
* ``fano_block`` — blow-up of a Fano threefold along the base locus of an
  anticanonical K3 pencil:
      b2 = b2(V) + 1,    b3 = b3(V) + (-K^3) + 2,   d = 0.

``d`` counts divisor classes on the block that die in the K3 fibre but
survive in the glued 7-manifold; it feeds straight into b2 of the glued
space.  ``euler_crosscheck`` recomputes the involution-route numbers from
the fixed-curve geometry and verifies both routes agree.
"""

from __future__ import annotations

from typing import NamedTuple

from ._frozen import Frozen
from .catalog import EMPTY, FanoFamily, NikulinTriple, fixed_locus

KIND_INVOLUTION = "INVOLUTION"
KIND_FANO = "FANO"
KIND_BLOWUP = "BLOWUP"


class BuildingBlock(Frozen, ignore=("triple",)):
    """Topological summary of one building block.

    ``b2_bar``/``b3_bar`` are Betti numbers of the closed block; ``rank``
    and ``l_bound`` describe the polarizing lattice for embedding checks.
    The catalog row ``triple`` takes no part in equality.
    """

    __slots__ = (
        "kind", "label", "b2_bar", "b3_bar", "d", "rank", "l_bound", "triple",
    )

    def __init__(
        self,
        kind: str,
        label: str,
        b2_bar: int,
        b3_bar: int,
        d: int,
        rank: int,
        l_bound: int,
        triple: NikulinTriple | None = None,
    ) -> None:
        self._fill(kind, label, b2_bar, b3_bar, d, rank, l_bound, triple)


def involution_block(t: NikulinTriple) -> BuildingBlock:
    """Block from a non-symplectic involution class (r, a, delta).

    The fixed-point-free class (10,10,0) admits no such block (the
    quotient is an Enriques surface, not a rational surface with a
    suitable pencil): asking for one is misuse and raises ``ValueError``.
    """
    if fixed_locus(t).kind == EMPTY:
        raise ValueError("class (10,10,0) acts freely and produces no building block")
    return BuildingBlock(
        kind=KIND_INVOLUTION,
        label=f"involution({t.r},{t.a},{t.delta})",
        b2_bar=3 + 2 * t.r - t.a,
        b3_bar=2 * (22 - t.r - t.a),
        d=2 + t.r - t.a,
        rank=t.r,
        l_bound=t.a,
        triple=t,
    )


def fano_block(f: FanoFamily) -> BuildingBlock:
    """Block from a Fano threefold via an anticanonical K3 pencil."""
    return BuildingBlock(
        kind=KIND_FANO,
        label=f"fano({f.id})",
        b2_bar=f.b2 + 1,
        b3_bar=f.b3 + f.minus_k3 + 2,
        d=0,
        rank=f.b2,
        l_bound=f.b2,
    )


def quartic_blowup_block() -> BuildingBlock:
    """Blow-up of P3 along four plane quartic curves, then the pencil trick.

    Each of the four blow-ups adds 1 to b2 and 2*g(quartic) = 6 to b3 of
    the threefold, giving (b2, b3) = (5, 24) upstairs; the block keeps a
    rank-1 polarizing lattice, so d = 4 - 1 = 3.
    """
    return BuildingBlock(
        kind=KIND_BLOWUP,
        label="quartic-curve blow-ups of P3",
        b2_bar=4,
        b3_bar=24,
        d=3,
        rank=1,
        l_bound=1,
    )


class EulerCheck(NamedTuple):
    """Both computation routes for an involution block, side by side.

    ``ok`` also requires an even fixed-curve Euler sum, without which the
    quotient's Euler characteristic 24 + 3 * euler_sum is odd and h12 is
    not an integer.
    """

    curve_count: int
    euler_sum: int
    h11: int
    h12: int
    b2_bar: int
    b3_bar: int

    @property
    def ok(self) -> bool:
        return (
            self.euler_sum % 2 == 0
            and self.h11 == self.b2_bar
            and 2 * self.h12 == self.b3_bar
        )


def euler_crosscheck(t: NikulinTriple) -> EulerCheck:
    """Recompute an involution block's Hodge numbers from its fixed curves.

    Route: the resolved quotient has h11 = r + 1 + 2*(number of fixed
    curves) and Euler characteristic e = 24 + 3 * (total Euler number of
    the fixed curves); then h12 = 1 + h11 - e/2.  These must match the
    ``b2_bar`` and ``b3_bar / 2`` of ``involution_block(t)``, the block
    that the enumerator glues; building it first rejects (10,10,0).
    """
    block = involution_block(t)
    locus = fixed_locus(t)
    curves = locus.curve_count
    euler = locus.euler_sum
    h11 = t.r + 1 + 2 * curves
    h12 = 1 + h11 - (24 + 3 * euler) // 2
    return EulerCheck(
        curve_count=curves,
        euler_sum=euler,
        h11=h11,
        h12=h12,
        b2_bar=block.b2_bar,
        b3_bar=block.b3_bar,
    )
