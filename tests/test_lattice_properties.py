"""Randomized property tests for the lattice engine.

The deterministic 500-matrix battery mirrors the acceptance suite; the
hypothesis properties below it explore the same invariants with shrinking.
The engine's fast paths are checked against independent oracles: a
signature by elimination over the rationals, delta by scanning all ``2^l``
dual coset representatives, and (when sympy is installed) sympy's
invariant factors.  The Smith transforms themselves are pinned by hash.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2sum.catalog import load_nikulin
from g2sum.lattice_core import (
    IntLattice,
    LatticeError,
    Signature,
    parse_lattice_expr,
)

SEED = 0x67327375  # "g2su"


def det_exact(m):
    """Fraction Gaussian elimination; works for any square integer matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return int(det)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m)))


def random_even_gram(rng, max_rank=5, spread=4):
    """A random even symmetric Gram matrix, not necessarily nondegenerate."""
    n = rng.randint(1, max_rank)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-spread, spread)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-spread, spread)
    return tuple(tuple(row) for row in g)


def random_unimodular(rng, n, steps=6):
    """Product of random elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            m[i][col] += c * m[j][col]
    return tuple(tuple(row) for row in m)


def iter_nondegenerate_grams(count, seed=SEED):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        gram = random_even_gram(rng)
        lat = IntLattice(gram)
        if lat.determinant() == 0:
            continue
        produced += 1
        yield rng, lat


def battery_500():
    """The 500 Grams of the battery, each with the congruence it is checked under."""
    return [(lat, random_unimodular(rng, lat.rank)) for rng, lat in iter_nondegenerate_grams(500)]


def catalog_models():
    """The lattice model of each of the 75 catalog rows, in catalog order."""
    return [parse_lattice_expr(t.source) for t in load_nikulin().triples]


def test_snf_battery_500():
    for lat, t in battery_500():
        snf = lat.smith_normal_form()
        n = lat.rank

        assert mat_mul(mat_mul(snf.U, lat.gram), snf.V) == snf.S
        assert abs(det_exact(snf.U)) == 1
        assert abs(det_exact(snf.V)) == 1

        diag = [snf.S[i][i] for i in range(n)]
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        off = sum(
            abs(snf.S[i][j]) for i in range(n) for j in range(n) if i != j
        )
        assert off == 0

        product = 1
        for d in diag:
            product *= d
        assert abs(lat.determinant()) == product

        disc = lat.discriminant()
        assert disc.invariant_factors == tuple(d for d in diag if d != 1)
        assert disc.order == product

        sig = lat.signature()
        assert sig.t_plus + sig.t_minus == n
        assert (lat.determinant() > 0) == (sig.t_minus % 2 == 0)

        # signature is a congruence invariant
        conjugated = IntLattice(mat_mul(mat_mul(transpose(t), lat.gram), t))
        assert conjugated.signature() == lat.signature()
        assert abs(conjugated.determinant()) == abs(lat.determinant())


def test_delta_of_named_lattices():
    assert parse_lattice_expr("2*E8(-1) + U").discriminant().delta == 0
    assert parse_lattice_expr("2*E8(-1) + <2>").discriminant().delta == 1


# --- hypothesis exploration ------------------------------------------------

even_grams = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(
        lambda rows: tuple(
            tuple(
                2 * rows[i][i] if i == j else rows[min(i, j)][max(i, j)]
                for j in range(n)
            )
            for i in range(n)
        )
    )
)


@given(even_grams)
def test_every_symmetrized_gram_is_even(gram):
    lat = IntLattice(gram)
    assert lat.is_even()
    assert lat.gram == transpose(lat.gram)


@given(even_grams)
def test_determinant_matches_reference(gram):
    assert IntLattice(gram).determinant() == det_exact(gram)


def scaled(gram, k):
    """The Gram matrix of the same module with the form multiplied by ``k``."""
    return [[k * x for x in row] for row in gram]


@given(even_grams, st.integers(-3, 3).filter(bool))
@settings(max_examples=60)
def test_rescale_determinant(gram, k):
    lat = IntLattice(gram)
    assert IntLattice(scaled(gram, k)).determinant() == k**lat.rank * lat.determinant()


@given(even_grams)
@settings(max_examples=60)
def test_signature_counts_rank(gram):
    lat = IntLattice(gram)
    if lat.determinant() == 0:
        return
    sig = lat.signature()
    assert sig.t_plus + sig.t_minus == lat.rank
    assert IntLattice(scaled(gram, -1)).signature() == Signature(sig.t_minus, sig.t_plus)


# --- independent oracles ----------------------------------------------------


def signature_by_fractions(gram):
    """Reference signature: symmetric Gaussian elimination over the rationals.

    A zero pivot block with a nonzero off-diagonal entry a[i][j] is repaired
    by adding row j and column j to i; a zero block raises LatticeError.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][i] != 0), None)
        if piv is None:
            mix = next(
                ((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if mix is None:
                raise LatticeError("degenerate Gram matrix (zero block remains)")
            i, j = mix
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            for row in a:
                row[t], row[piv] = row[piv], row[t]
        p = a[t][t]
        if p > 0:
            pos += 1
        else:
            neg += 1
        factors = [(i, a[i][t] / p) for i in range(t + 1, n) if a[i][t] != 0]
        for i, f in factors:
            for j in range(t, n):
                a[i][j] -= f * a[t][j]
        for i, f in factors:
            for j in range(t, n):
                a[j][i] = a[i][j]
    return Signature(pos, neg)


def delta_by_subsets(lat):
    """Reference delta: test every one of the 2^l dual coset representatives.

    Each representative is ``t = w/2`` for a subset sum ``w`` of the columns
    of V over invariant factor 2; ``t·t`` is integral iff 4 divides
    ``w·gram·w``.
    """
    snf = lat.smith_normal_form()
    n = lat.rank
    cols = [tuple(snf.V[r][i] for r in range(n)) for i in range(n) if snf.S[i][i] == 2]
    for mask in range(1, 1 << len(cols)):
        w = [sum(c[r] for k, c in enumerate(cols) if mask >> k & 1) for r in range(n)]
        square = sum(w[r] * lat.gram[r][s] * w[s] for r in range(n) for s in range(n))
        if square % 4 != 0:
            return 1
    return 0


@st.composite
def symmetric_grams(draw):
    """Symmetric integer matrices of rank 1..8 with entries in [-50, 50].

    The last ``k`` basis vectors get a zero diagonal; when ``split`` also
    makes them orthogonal to the others, elimination reaches them as a
    trailing block with zero diagonal, so the "add row/col j to i" repair
    runs mid-way as well as at the start (``k == n``).
    """
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    split = draw(st.booleans())
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(st.integers(-50, 50))
            if (i == j and i >= n - k) or (split and i < n - k <= j):
                x = 0
            g[i][j] = g[j][i] = x
    return tuple(map(tuple, g))


def _signature_or_error(fn, gram):
    try:
        return fn(gram)
    except LatticeError:
        return LatticeError


@given(symmetric_grams())
@example(((2, 0, 0), (0, 0, 1), (0, 1, 0)))  # <2> + U: repair after one step
@example(((0, 1, 1), (1, 0, 1), (1, 1, 0)))  # repair at the start
@example(((-4, 0, 0), (0, 0, 0), (0, 0, 6)))  # degenerate: a zero block remains
@settings(max_examples=400)
def test_signature_matches_fraction_oracle(gram):
    expected = _signature_or_error(signature_by_fractions, gram)
    assert _signature_or_error(lambda g: IntLattice(g).signature(), gram) == expected
    assert (expected is LatticeError) == (det_exact(gram) == 0)


def _check_determinant_and_sign(gram):
    lat = IntLattice(gram)
    det = lat.determinant()
    assert det == det_exact(gram)
    if det:
        assert (det > 0) == (lat.signature().t_minus % 2 == 0)
    else:
        with pytest.raises(LatticeError, match="degenerate"):
            lat.signature()


@given(symmetric_grams())
@example(((2, 0, 0), (0, 0, 1), (0, 1, 0)))  # <2> + U: repair after one step
@example(((0, 1, 1), (1, 0, 1), (1, 1, 0)))  # repair at the start
@example(((-4, 0, 0), (0, 0, 0), (0, 0, 6)))  # degenerate: a zero block remains
@settings(max_examples=400)
def test_determinant_matches_reference_on_the_repair_path(gram):
    _check_determinant_and_sign(gram)


@st.composite
def large_entry_grams(draw):
    """Symmetric matrices of rank 1..8 with entries up to 10**9 in size."""
    n = draw(st.integers(1, 8))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-(10**9), 10**9))
    return tuple(map(tuple, g))


@given(large_entry_grams())
@settings(max_examples=100)
def test_determinant_and_signature_with_large_entries(gram):
    _check_determinant_and_sign(gram)
    expected = _signature_or_error(signature_by_fractions, gram)
    assert _signature_or_error(lambda g: IntLattice(g).signature(), gram) == expected


def test_delta_matches_subset_scan_on_models_and_battery():
    checked = 0
    for lat in catalog_models() + [lat for lat, _ in battery_500()]:
        info = lat.discriminant()
        if info.is_2_elementary:
            assert info.delta == delta_by_subsets(lat), lat.gram
            checked += 1
    assert checked == 117  # the 75 models and 42 battery lattices


DELTA_TERMS = (
    "U", "U(2)", "<2>", "<-2>", "E7", "E7(-1)",
    "D4", "D4(-1)", "D5", "D6(-1)", "D8", "D9(-1)",
)


@given(st.lists(st.sampled_from(DELTA_TERMS), min_size=1, max_size=4))
@settings(max_examples=200)
def test_delta_matches_subset_scan_on_direct_sums(terms):
    lat = parse_lattice_expr(" + ".join(terms))
    info = lat.discriminant()
    if info.is_2_elementary:
        assert info.delta == delta_by_subsets(lat)
    else:
        assert info.delta is None


# A rescale suffix: small factors of either sign, or one past a machine word.
nonzero_factors = st.integers(-3, 3).filter(bool) | st.just(2**70)


@st.composite
def engine_built_lattices(draw):
    """A lattice the engine builds from checked parts without a second check:
    a parsed expression over ``DELTA_TERMS`` with multiplicities and ``(s)``
    suffixes, the one place the engine builds a lattice."""
    terms = []
    for term in draw(st.lists(st.sampled_from(DELTA_TERMS), min_size=1, max_size=4)):
        if "(" not in term and term[0] != "<" and draw(st.booleans()):
            term += f"({draw(nonzero_factors)})"
        count = draw(st.integers(1, 2))
        terms.append(f"{count}*{term}" if count > 1 else term)
    return parse_lattice_expr(" + ".join(terms))


@given(engine_built_lattices())
@settings(max_examples=150)
def test_engine_built_grams_pass_the_caller_checks(lat):
    gram = lat.gram
    assert type(gram) is tuple and gram
    assert all(type(row) is tuple and len(row) == len(gram) for row in gram)
    assert all(type(x) is int for row in gram for x in row)
    assert gram == tuple(zip(*gram))
    checked = IntLattice(gram)
    assert checked == lat
    assert checked.signature() == lat.signature()
    assert checked.determinant() == lat.determinant()


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for lat in catalog_models() + [lat for lat, _ in battery_500()]:
        expected = invariant_factors(sympy.Matrix(lat.gram), domain=sympy.ZZ)
        S = lat.smith_normal_form().S
        assert tuple(S[i][i] for i in range(len(S))) == tuple(int(x) for x in expected), lat.gram


# SHA-256 of the repr of (U, S, V) for the 75 catalog models and then the
# 500-matrix battery, one line each.  The transforms are part of the
# engine's output (delta reads V), so a faster kernel must perform the same
# row and column operations and leave this hash as it is.
SMITH_TRANSFORMS_SHA256 = "be9d292e8eb6c95896543581061d369506cfb4491e13a48c9a76a5003ee4947f"


def test_smith_transforms_pinned():
    lattices = catalog_models() + [lat for lat, _ in battery_500()]
    text = "\n".join(
        repr((snf.U, snf.S, snf.V)) for snf in (lat.smith_normal_form() for lat in lattices)
    )
    assert len(lattices) == 575
    assert hashlib.sha256(text.encode()).hexdigest() == SMITH_TRANSFORMS_SHA256


# SHA-256 of the repr of ``discriminant()`` for the same 575 lattices, one
# line each.  A faster ``discriminant`` must leave this hash as it is.
DISCRIMINANTS_SHA256 = "c6418af1b927b25346708de8a64bf57871eddf80da5cc4a0b9ee3625ae13e0cb"


def test_discriminants_pinned():
    lattices = catalog_models() + [lat for lat, _ in battery_500()]
    text = "\n".join(repr(lat.discriminant()) for lat in lattices)
    assert len(lattices) == 575
    assert hashlib.sha256(text.encode()).hexdigest() == DISCRIMINANTS_SHA256
