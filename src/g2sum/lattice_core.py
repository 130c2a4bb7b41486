"""Exact arithmetic on nondegenerate integer lattices.

A lattice is described by its Gram matrix: a square symmetric matrix of
integers recording the pairwise products of a fixed basis.  Everything in
this module is computed exactly and over the integers only — the
signature and the determinant by one fraction-free symmetric (Bareiss)
elimination, computed once per lattice, and discriminant groups via the
integer Smith normal form with unimodular transforms tracked.  No floating
point and no rationals anywhere.

A Gram matrix is checked once, where it comes in from a caller:
``IntLattice(gram)`` rejects a non-integer entry, an empty, non-square or
asymmetric matrix.  The parser builds the engine's lattices from parts
the grammar has checked and does not check them again; a rescaled lattice
is named there by a suffix (``U(2)``).

A parsed expression is never eliminated: the signature of an orthogonal
sum adds and its determinant multiplies over the terms, and each term's
``(t_plus, t_minus, det)`` is read off the grammar.  Its Smith form is
still computed on its whole Gram matrix.

Lattices are named by direct-sum expressions (:func:`parse_lattice_expr`)
in Nikulin's notation: ``term (+ term)*``, where a term is an optional
positive multiplicity ``n*`` followed by ``U``, the hyperbolic plane
``[[0, 1], [1, 0]]``; a positive definite root lattice ``Dn`` (n >= 3),
``E7`` or ``E8``; or ``<k>``, the rank-one lattice spanned by a vector of
square ``k`` (even and nonzero, so the lattice is even).  ``U`` and the
root lattices take an optional rescale suffix ``(s)``.  Every number is
written in ASCII digits, at most as many as ``int`` converts
(``sys.get_int_max_str_digits()``, 4300 by default).  So ``E8(-1)`` is
the negative definite even unimodular rank-8 lattice, and the K3 lattice
is ``2*E8(-1) + 3*U``: rank 22, signature (3, 19).

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
import sys
from collections import namedtuple
from math import prod
from operator import index, mul
from typing import Iterator, Sequence

from ._frozen import Frozen

Matrix = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    """Malformed Gram matrix or unsupported lattice query."""


class Signature(namedtuple("Signature", "t_plus t_minus")):
    """Counts of positive / negative directions of a nondegenerate form."""

    __slots__ = ()


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


class SmithDecomposition(namedtuple("SmithDecomposition", "U S V")):
    """Integer Smith normal form ``U @ gram @ V == S`` with unimodular U, V.

    The diagonal of ``S`` is nonnegative and satisfies the divisibility
    chain ``s_i | s_{i+1}``.
    """

    __slots__ = ()


class DiscriminantInfo(
    namedtuple("DiscriminantInfo", "invariant_factors order l is_2_elementary delta")
):
    """Shape of the discriminant group, with the parity invariant.

    ``delta`` is 0 or 1 for 2-elementary lattices and ``None`` (meaning
    "undefined") otherwise.
    """

    __slots__ = ()


class IntLattice(Frozen, ignore=("_smith", "_pivots")):
    """A nondegenerate integer lattice given by its Gram matrix.

    Entries must be integers (anything ``operator.index`` accepts); floats
    and strings are rejected, never truncated.  This constructor, for caller
    data, is the one that checks a Gram matrix; the parser builds its
    lattices with :meth:`_from_checked`.  Equality and hash read
    the Gram matrix only, not the cached Smith form or elimination.

    >>> IntLattice([[0, 1], [1, 0]]).signature()
    Signature(t_plus=1, t_minus=1)
    """

    __slots__ = ("gram", "_smith", "_pivots")

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
        self._fill(frozen, None, None)

    @classmethod
    def _from_checked(cls, gram: Matrix, pivots: tuple[int, int, int]) -> IntLattice:
        """A parsed lattice: :func:`parse_lattice_expr` is the one caller.

        ``gram`` must be a nonempty square symmetric tuple of tuples of
        ``int``, as the parser builds it; nothing is checked again.
        ``pivots``, read off the grammar, fills the ``_pivots`` slot.
        """
        lattice = object.__new__(cls)
        lattice._fill(gram, None, pivots)
        return lattice

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        """True when every basis vector has even square."""
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        """Exact determinant: the last pivot ``D_n`` of :meth:`_eliminate`."""
        return (self._pivots or self._eliminate())[2]

    def signature(self) -> Signature:
        """Exact Sylvester signature; raises on a degenerate form.

        The pivots ``1, D_1, ..., D_n`` of :meth:`_eliminate` are nonzero
        leading principal minors of a congruent Gram matrix, so by Jacobi's
        rule their sign changes count the negative directions.
        """
        t_plus, t_minus, det = self._pivots or self._eliminate()
        if det == 0:
            raise LatticeError("degenerate Gram matrix (zero block remains)")
        return Signature(t_plus, t_minus)

    def _eliminate(self) -> tuple[int, int, int]:
        """``(t_plus, t_minus, det)`` by one fraction-free symmetric elimination.

        Runs on first use by :meth:`signature` or :meth:`determinant`; the
        result is kept in the ``_pivots`` slot, as the Smith form is in
        ``_smith``.  A parsed lattice never runs it: :func:`parse_lattice_expr`
        fills its slot from the grammar.  Bareiss's rule:
        with ``prev = D_k`` and pivot ``p = D_{k+1}``, the trailing entry
        (i, j) becomes ``(p * a[i][j] - a[i][0] * a[0][j]) // prev``, a
        bordered minor, so the division is exact.  The pivot is the first nonzero trailing
        diagonal entry, swapped into place on both sides; if that diagonal
        is all zero, a nonzero a[i][j] is repaired by "add row j and column
        j to i", making the new diagonal entry 2*a[i][j].  Both moves are
        congruences of determinant +-1 that fix the leading block, so the
        entries stay bordered minors and the pivots leading principal
        minors.  An all-zero trailing block means a degenerate form: ``det``
        is 0 and the counts are partial.
        """
        a = [list(row) for row in self.gram]
        prev = 1
        neg = 0
        while a:
            if not a[0][0]:
                m = len(a)
                piv = next((i for i in range(m) if a[i][i]), None)
                if piv is None:
                    mix = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
                    if mix is None:
                        prev = 0
                        break
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
            if (p < 0) != (prev < 0):
                neg += 1
            head = a[0][1:]
            a = [
                [(p * x - c * h) // prev for x, h in zip(row[1:], head)]
                if (c := row[0])
                else [p * x // prev for x in row[1:]]
                for row in a[1:]
            ]
            prev = p
        pivots = (len(self.gram) - len(a) - neg, neg, prev)
        object.__setattr__(self, "_pivots", pivots)
        return pivots

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

        Requires an even nondegenerate lattice.  Reads the diagonal of the
        lattice's one Smith decomposition once.  By the divisibility chain
        its last nontrivial entry decides the rest: 0 means a degenerate
        form, and 2 means every nontrivial entry is 2, so the group is
        2-elementary and its generators sit over the last ``l`` columns of
        V.  delta is computed only then (see :meth:`_delta_2_elementary`);
        it is ``None`` ("undefined") otherwise.
        """
        if not self.is_even():
            raise LatticeError("discriminant data is defined here for even lattices only")
        snf = self.smith_normal_form()
        factors = tuple([d for i, row in enumerate(snf.S) if (d := row[i]) != 1])
        l = len(factors)
        if l and not factors[-1]:
            raise LatticeError("degenerate Gram matrix has no discriminant group")
        is_2_elementary = not l or factors[-1] == 2
        return DiscriminantInfo(
            invariant_factors=factors,
            order=prod(factors),
            l=l,
            is_2_elementary=is_2_elementary,
            delta=self._delta_2_elementary(snf.V, self.rank - l) if is_2_elementary else None,
        )

    def _delta_2_elementary(self, v: Matrix, first: int) -> int:
        """Parity invariant for a (Z/2)^l discriminant group.

        The dual lattice is spanned over the lattice by the generators
        ``t_i = w_i/2``, ``w_i`` the columns ``first, ..., rank - 1`` of V,
        which sit over invariant factor 2.  Since ``2*t_i`` lies in the
        lattice, ``2*b(t_i, t_j)`` is an integer, so ``(sum t_i)^2 = sum
        t_i^2 (mod Z)``: every dual square is integral iff every generator
        square is, i.e. iff each ``w_i·gram·w_i`` is divisible by 4.  That
        is ``l`` quadratic forms, O(l·n²), with no subset scan; the first
        square not divisible by 4 ends it.
        """
        for i in range(first, self.rank):
            w = [row[i] for row in v]
            square = sum(x * sum(map(mul, row, w)) for x, row in zip(w, self.gram) if x)
            if square % 4:
                return 1
        return 0


def _tree_gram(arms: tuple[int, ...]) -> Matrix:
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
    return tuple(map(tuple, g))


_EXPR_TERM = re.compile(
    r"(?:(\d+)\*)?(?:<(-?\d+)>|(U|E7|E8|D(\d+))(?:\((-?\d+)\))?)", re.ASCII
)


def _expr_int(digits: str, slot: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than ``int`` converts
        raise LatticeError(f"{slot} has over {sys.get_int_max_str_digits()} digits") from None


def _expr_terms(text: str) -> Iterator[tuple[Matrix, tuple[int, int, int], int]]:
    """``(gram, (t_plus, t_minus, det), multiplicity)`` of each term of ``text``.

    ``<k>`` has determinant k, ``U`` is (1, 1, -1), and ``Dn``, ``E7`` and
    ``E8`` are positive definite of determinant 4, 2 and 1.  A rescale by s
    multiplies the determinant by s^rank and swaps the counts when s < 0.
    """
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise LatticeError(f"empty term in lattice expression {text!r}")
        m = _EXPR_TERM.fullmatch(term)
        if not m:
            raise LatticeError(f"cannot parse lattice term {term!r}")
        count, square, name, d_rank, scale = m.groups()
        if square is not None:
            det = _expr_int(square, "rank-one square")
            if det == 0 or det % 2:
                raise LatticeError(f"rank-one square must be even and nonzero, got {det}")
            gram, neg = ((det,),), int(det < 0)
        elif name == "U":
            gram, neg, det = ((0, 1), (1, 0)), 1, -1
        elif name == "E7":
            gram, neg, det = _tree_gram((1, 2, 3)), 0, 2
        elif name == "E8":
            gram, neg, det = _tree_gram((1, 2, 4)), 0, 1
        else:
            n = _expr_int(d_rank, "D rank")
            if n < 3:
                raise LatticeError(f"D{n} is not a valid root lattice here (need n >= 3)")
            gram, neg, det = _tree_gram((1, 1, n - 3)), 0, 4
        rank = len(gram)
        if scale is not None:
            s = _expr_int(scale, "rescale factor")
            if not s:
                raise LatticeError("rescale factor must be nonzero")
            gram = tuple([tuple([s * x for x in row]) for row in gram])
            det *= s**rank
            if s < 0:
                neg = rank - neg
        count = _expr_int(count or "1", "multiplicity")
        if count < 1:
            raise LatticeError(f"term multiplicity must be positive in {term!r}")
        yield gram, (rank - neg, neg, det), count


def parse_lattice_expr(text: str) -> IntLattice:
    """Build a lattice from a direct-sum expression (grammar: module docstring).

    The block-diagonal Gram matrix is built once; its ``_pivots`` slot is
    ``(sum t_plus, sum t_minus, prod det)`` over the terms.

    >>> parse_lattice_expr("U + 2*E8(-1)").signature()
    Signature(t_plus=1, t_minus=17)
    """
    terms = list(_expr_terms(text))
    zeros = (0,) * sum(len(gram) * count for gram, _, count in terms)
    rows: list[tuple[int, ...]] = []
    plus = minus = 0
    det = 1
    for gram, (t_plus, t_minus, term_det), count in terms:
        plus += count * t_plus
        minus += count * t_minus
        det *= term_det**count
        for _ in range(count):
            left, right = zeros[: len(rows)], zeros[len(rows) + len(gram) :]
            rows += [left + row + right for row in gram]
    return IntLattice._from_checked(tuple(rows), (plus, minus, det))
