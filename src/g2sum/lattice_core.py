"""Exact arithmetic on nondegenerate integer lattices.

A lattice is described by its Gram matrix: a square symmetric matrix of
integers recording the pairwise products of a fixed basis.  Everything in
this module is computed exactly and over the integers only — signatures
by fraction-free symmetric elimination, determinants by fraction-free
(Bareiss) elimination, discriminant groups via the integer Smith normal
form with unimodular transforms tracked.  No floating point and no
rationals anywhere.

Conventions
-----------
* ``H`` is the hyperbolic plane ``[[0, 1], [1, 0]]``.
* ``E8_NEG`` is the negative definite even unimodular rank-8 lattice,
  i.e. minus the E8 Cartan matrix (Dynkin tree with arms 1, 2, 4 from the
  trivalent node).
* ``RANK1`` is the rank-one lattice spanned by a vector of square ``k``
  (``k`` even and nonzero, so the lattice is even).
* ``K3`` is ``2*E8_NEG + 3*H``: rank 22, signature (3, 19).

The discriminant group of a nondegenerate lattice ``N`` is the finite
abelian group ``N*/N``; its order is ``|det gram|`` and its minimal number
of generators ``l(N)`` is the number of nontrivial invariant factors.  A
lattice is 2-elementary when the group is ``(Z/2)^a``; for those we also
compute the parity invariant delta: 0 when every dual coset representative
``t`` has integral square ``t·t``, else 1.

>>> lat = parse_lattice_expr("U + E7(-1)")
>>> lat.signature(), lat.determinant()
(Signature(t_plus=1, t_minus=8), 2)
>>> lat.discriminant()
DiscriminantInfo(invariant_factors=(2,), order=2, l=1, is_2_elementary=True, delta=1)
"""

from __future__ import annotations

import re
from itertools import chain
from math import gcd, prod
from operator import index, mul
from typing import Iterator, NamedTuple, Sequence

from ._frozen import Frozen

Matrix = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    """Malformed Gram matrix or unsupported lattice query."""


class Signature(NamedTuple):
    """Counts of positive / negative directions of a nondegenerate form."""

    t_plus: int
    t_minus: int


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


class SmithDecomposition(NamedTuple):
    """Integer Smith normal form ``U @ gram @ V == S`` with unimodular U, V.

    The diagonal of ``S`` is nonnegative and satisfies the divisibility
    chain ``s_i | s_{i+1}``.
    """

    U: Matrix
    S: Matrix
    V: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(len(self.S)))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Nontrivial invariant factors (entries equal to 1 dropped)."""
        return tuple(s for s in self.diagonal if s != 1)


class DiscriminantInfo(NamedTuple):
    """Shape of the discriminant group, with the parity invariant.

    ``delta`` is 0 or 1 for 2-elementary lattices and ``None`` (meaning
    "undefined") otherwise.
    """

    invariant_factors: tuple[int, ...]
    order: int
    l: int
    is_2_elementary: bool
    delta: int | None


class IntLattice(Frozen, ignore=("_smith",)):
    """A nondegenerate integer lattice given by its Gram matrix.

    Entries must be integers (anything ``operator.index`` accepts); floats
    and strings are rejected, never truncated.  Equality and hash read the
    Gram matrix only, not the cached Smith form.

    >>> IntLattice([[0, 1], [1, 0]]).signature()
    Signature(t_plus=1, t_minus=1)
    """

    __slots__ = ("gram", "_smith")

    def __init__(self, gram: Sequence[Sequence[int]]) -> None:
        if not gram:
            raise LatticeError("empty Gram matrix (rank must be at least 1)")
        try:
            frozen = tuple(tuple(map(index, row)) for row in gram)
        except TypeError as exc:
            raise LatticeError(f"Gram matrix must be rows of integers ({exc})") from None
        n = len(frozen)
        for row in frozen:
            if len(row) != n:
                raise LatticeError("Gram matrix must be square")
        if frozen != tuple(zip(*frozen)):
            i, j = next(
                (i, j) for i in range(n) for j in range(i + 1, n) if frozen[i][j] != frozen[j][i]
            )
            raise LatticeError(
                f"Gram matrix must be symmetric (entries {(i, j)} and {(j, i)} differ)"
            )
        self._fill(frozen, None)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        """True when every basis vector has even square."""
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def rescale(self, k: int) -> "IntLattice":
        """The same module with the form multiplied by ``k`` (nonzero)."""
        if k == 0:
            raise LatticeError("rescale factor must be nonzero")
        return IntLattice(tuple(tuple(k * x for x in row) for row in self.gram))

    def determinant(self) -> int:
        """Exact determinant of the Gram matrix (fraction-free elimination)."""
        n = self.rank
        a = [list(row) for row in self.gram]
        sign = 1
        prev = 1
        for t in range(n - 1):
            if a[t][t] == 0:
                swap = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
                if swap is None:
                    return 0
                a[t], a[swap] = a[swap], a[t]
                sign = -sign
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            prev = a[t][t]
        return sign * a[n - 1][n - 1]

    def signature(self) -> Signature:
        """Exact Sylvester signature; raises on a degenerate form.

        Symmetric elimination over the integers, with no division.  With
        pivot ``p = a[t][t]`` and ``s = sign(p)``, the trailing block becomes
        ``s * (p * a[i][j] - a[i][t] * a[t][j])``: ``|p|`` times the
        Schur complement, so every row of the block is scaled and the step
        stays a congruence up to a positive factor.  The block is then
        divided by the gcd of its entries to keep them small.  A zero pivot
        block with a nonzero off-diagonal entry a[i][j] is repaired by the
        congruence "add row j and column j to i", which makes the new
        diagonal entry 2*a[i][j] != 0.
        """
        a = [list(row) for row in self.gram]
        pos = neg = 0
        while a:
            m = len(a)
            piv = next((i for i in range(m) if a[i][i]), None)
            if piv is None:
                mix = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
                if mix is None:
                    raise LatticeError("degenerate Gram matrix (zero block remains)")
                i, j = mix
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for row in a:
                    row[i] += row[j]
                piv = i
            if piv:
                a[0], a[piv] = a[piv], a[0]
                for row in a:
                    row[0], row[piv] = row[piv], row[0]
            p = a[0][0]
            if p > 0:
                pos += 1
            else:
                neg += 1
            s = 1 if p > 0 else -1
            q = s * p
            head = a[0][1:]
            block = []
            for row in a[1:]:
                c = s * row[0]
                if c:
                    block.append([q * x - c * h for x, h in zip(row[1:], head)])
                else:
                    block.append([q * x for x in row[1:]])
            g = gcd(*chain.from_iterable(block))
            if g > 1:
                block = [[x // g for x in row] for row in block]
            a = block
        return Signature(pos, neg)

    def smith_normal_form(self) -> SmithDecomposition:
        """Smith normal form over the integers with transforms tracked.

        The lattice is immutable, so the decomposition is computed on first
        use, kept in the ``_smith`` slot, and every call returns that same
        object.
        """
        snf = self._smith
        if snf is None:
            snf = self._smith_decomposition()
            object.__setattr__(self, "_smith", snf)
        return snf

    def _smith_decomposition(self) -> SmithDecomposition:
        n = self.rank
        a = [list(row) for row in self.gram]
        u = _identity(n)
        v = _identity(n)
        # Row operations act on a and u, column operations on a and v.
        for t in range(n):
            while True:
                # Move the first least-|entry| of the trailing block (row
                # major) to (t, t); nothing beats an entry of absolute value 1.
                best = pi = pj = 0
                for i in range(t, n):
                    row = a[i]
                    for j in range(t, n):
                        x = row[j]
                        if x:
                            if x < 0:
                                x = -x
                            if not best or x < best:
                                best, pi, pj = x, i, j
                                if x == 1:
                                    break
                    if best == 1:
                        break
                if not best:
                    break  # trailing block is zero
                if pi != t:
                    a[t], a[pi] = a[pi], a[t]
                    u[t], u[pi] = u[pi], u[t]
                if pj != t:
                    for row in a:
                        row[t], row[pj] = row[pj], row[t]
                    for row in v:
                        row[t], row[pj] = row[pj], row[t]
                if a[t][t] < 0:
                    a[t] = [-x for x in a[t]]
                    u[t] = [-x for x in u[t]]
                head = a[t]
                p = head[t]
                # Reduce column t and row t; any nonzero remainder is
                # strictly smaller than |p|, so the while loop terminates.
                dirty = False
                for i in range(t + 1, n):
                    if a[i][t]:
                        c = -(a[i][t] // p)
                        a[i] = [x + c * y for x, y in zip(a[i], head)]
                        u[i] = [x + c * y for x, y in zip(u[i], u[t])]
                        dirty = dirty or a[i][t] != 0
                for j in range(t + 1, n):
                    if head[j]:
                        c = -(head[j] // p)
                        for row in a:
                            row[j] += c * row[t]
                        for row in v:
                            row[j] += c * row[t]
                        dirty = dirty or head[j] != 0
                if dirty:
                    continue
                # Enforce the divisibility chain: drag any entry not
                # divisible by the pivot into row t and keep reducing.
                if p == 1:
                    break
                bad = next(
                    (i for i in range(t + 1, n) for j in range(t + 1, n) if a[i][j] % p),
                    None,
                )
                if bad is None:
                    break
                a[t] = [x + y for x, y in zip(head, a[bad])]
                u[t] = [x + y for x, y in zip(u[t], u[bad])]
        return SmithDecomposition(
            U=tuple(map(tuple, u)), S=tuple(map(tuple, a)), V=tuple(map(tuple, v))
        )

    def discriminant(self) -> DiscriminantInfo:
        """Invariant factors, group order, l, 2-elementarity and delta.

        Requires an even nondegenerate lattice.  Reads the lattice's one
        Smith decomposition.  delta is computed only for 2-elementary
        discriminant groups, from the ``l`` generator squares (see
        :meth:`_delta_2_elementary`); it is ``None`` ("undefined")
        otherwise.
        """
        if not self.is_even():
            raise LatticeError("discriminant data is defined here for even lattices only")
        snf = self.smith_normal_form()
        diag = snf.diagonal
        if any(s == 0 for s in diag):
            raise LatticeError("degenerate Gram matrix has no discriminant group")
        factors = snf.invariant_factors
        order = prod(factors) if factors else 1
        is_2_elementary = all(f == 2 for f in factors)
        delta: int | None = None
        if is_2_elementary:
            delta = self._delta_2_elementary(snf)
        return DiscriminantInfo(
            invariant_factors=factors,
            order=order,
            l=len(factors),
            is_2_elementary=is_2_elementary,
            delta=delta,
        )

    def _delta_2_elementary(self, snf: SmithDecomposition) -> int:
        """Parity invariant for a (Z/2)^l discriminant group.

        The dual lattice is spanned over the lattice by the generators
        ``t_i = w_i/2``, ``w_i`` the columns of V sitting over invariant
        factor 2.  Since ``2*t_i`` lies in the lattice, ``2*b(t_i, t_j)`` is
        an integer, so ``(sum t_i)^2 = sum t_i^2 (mod Z)``: every dual
        square is integral iff every generator square is, i.e. iff each
        ``w_i·gram·w_i`` is divisible by 4.  That is ``l`` quadratic forms,
        O(l·n²), with no subset scan.
        """
        for i, d in enumerate(snf.diagonal):
            if d == 2:
                w = [row[i] for row in snf.V]
                square = sum(x * sum(map(mul, row, w)) for x, row in zip(w, self.gram) if x)
                if square % 4:
                    return 1
        return 0


def direct_sum(first: IntLattice, *rest: IntLattice) -> IntLattice:
    """Block-diagonal sum; rank adds, determinant multiplies, signature adds."""
    parts = (first, *rest)
    total = sum(p.rank for p in parts)
    rows: list[list[int]] = [[0] * total for _ in range(total)]
    offset = 0
    for part in parts:
        for i in range(part.rank):
            for j in range(part.rank):
                rows[offset + i][offset + j] = part.gram[i][j]
        offset += part.rank
    return IntLattice(rows)


def _tree_gram(arms: tuple[int, ...]) -> list[list[int]]:
    """Positive definite Gram of the simply-laced Dynkin tree with the
    given arm lengths hanging off one central node."""
    n = 1 + sum(arms)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    idx = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            g[prev][idx] = g[idx][prev] = -1
            prev = idx
            idx += 1
    return g


_HYPERBOLIC = ((0, 1), (1, 0))


def _root_lattice(name: str) -> IntLattice:
    """Positive definite root lattice by Dynkin name (A1, Dn for n>=3, E7, E8)."""
    if name == "A1":
        return IntLattice(((2,),))
    if name == "E8":
        return IntLattice(_tree_gram((1, 2, 4)))
    if name == "E7":
        return IntLattice(_tree_gram((1, 2, 3)))
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise LatticeError(f"D{n} is not a valid root lattice here (need n >= 3)")
        return IntLattice(_tree_gram((1, 1, n - 3)))
    raise LatticeError(f"unknown root lattice {name!r}")


def standard_lattice(name: str, k: int | None = None) -> IntLattice:
    """Named lattices used throughout: E8_NEG, H, K3, TWO_E8_TWO_H,
    L_18_0_0, L_17_1_1, and RANK1 with its square ``k`` even and nonzero.
    """
    if name == "RANK1":
        if k is None:
            raise LatticeError("RANK1 requires a square k")
        if k == 0 or k % 2 != 0:
            raise LatticeError(f"RANK1 square must be even and nonzero, got {k}")
        return IntLattice(((k,),))
    if k is not None:
        raise LatticeError(f"{name} takes no parameter")
    e8_neg = _root_lattice("E8").rescale(-1)
    h = IntLattice(_HYPERBOLIC)
    if name == "E8_NEG":
        return e8_neg
    if name == "H":
        return h
    if name == "K3":
        return direct_sum(e8_neg, e8_neg, h, h, h)
    if name == "TWO_E8_TWO_H":
        return direct_sum(e8_neg, e8_neg, h, h)
    if name == "L_18_0_0":
        return direct_sum(e8_neg, e8_neg, h)
    if name == "L_17_1_1":
        return direct_sum(e8_neg, e8_neg, IntLattice(((2,),)))
    raise LatticeError(f"unknown standard lattice {name!r}")


_EXPR_ROOT = re.compile(r"(?:(\d+)\*)?(U|H|A1|E7|E8|D\d+)(?:\((-?\d+)\))?")
_EXPR_RANK1 = re.compile(r"(?:(\d+)\*)?<(-?\d+)>")


def _expr_terms(text: str) -> Iterator[IntLattice]:
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise LatticeError(f"empty term in lattice expression {text!r}")
        m = _EXPR_RANK1.fullmatch(term)
        if m:
            count = int(m.group(1) or 1)
            base = standard_lattice("RANK1", int(m.group(2)))
            scale = None
        else:
            m = _EXPR_ROOT.fullmatch(term)
            if not m:
                raise LatticeError(f"cannot parse lattice term {term!r}")
            count = int(m.group(1) or 1)
            name = m.group(2)
            base = IntLattice(_HYPERBOLIC) if name in ("U", "H") else _root_lattice(name)
            scale = int(m.group(3)) if m.group(3) is not None else None
        if scale is not None:
            base = base.rescale(scale)
        if count < 1:
            raise LatticeError(f"term multiplicity must be positive in {term!r}")
        for _ in range(count):
            yield base


def parse_lattice_expr(text: str) -> IntLattice:
    """Build a lattice from a direct-sum expression.

    Grammar: ``term (+ term)*`` where a term is an optional positive
    multiplicity ``n*`` followed by ``U``/``H`` (hyperbolic plane), a root
    lattice name (``A1``, ``Dn``, ``E7``, ``E8``) with optional rescale
    suffix ``(s)``, or a rank-one lattice ``<k>``.

    >>> parse_lattice_expr("U + 2*E8(-1)").signature()
    Signature(t_plus=1, t_minus=17)
    """
    terms = list(_expr_terms(text))
    return direct_sum(*terms)
