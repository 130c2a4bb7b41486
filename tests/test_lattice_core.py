"""Unit tests for the exact integer lattice engine."""

import doctest
import sys

import pytest

import g2sum.lattice_core as lattice_core
from g2sum.lattice_core import (
    IntLattice,
    LatticeError,
    Signature,
    parse_lattice_expr,
)
from test_lattice_properties import det_exact, mat_mul

A2 = IntLattice(((2, 1), (1, 2)))


def test_construction_rejects_bad_grams():
    with pytest.raises(LatticeError, match="square"):
        IntLattice(((2, 1), (1, 2), (0, 0)))
    with pytest.raises(LatticeError, match="symmetric"):
        IntLattice(((2, 1), (0, 2)))
    with pytest.raises(LatticeError, match="rank must be at least 1"):
        IntLattice(())


@pytest.mark.parametrize(
    "gram",
    [[[2.9, 1], [1, 2]], [["4"]], [[2, 1.0], [1.0, 2]], [[None]], [4]],
    ids=["float", "str", "integral float", "None", "scalar row"],
)
def test_construction_rejects_non_integer_entries(gram):
    with pytest.raises(LatticeError, match="rows of integers"):
        IntLattice(gram)


def test_construction_accepts_int_like_entries():
    class Seven:
        def __index__(self):
            return 7

    lat = IntLattice([[True, Seven()], [7, -2]])
    assert lat.gram == ((1, 7), (7, -2))
    assert all(type(x) is int for row in lat.gram for x in row)
    assert lat == IntLattice(((1, 7), (7, -2)))


def test_gram_is_stored_immutably():
    lat = IntLattice([[2, 1], [1, 2]])
    assert lat.gram == ((2, 1), (1, 2))
    assert isinstance(lat.gram, tuple)
    assert lat.rank == 2


def test_a2_invariants():
    assert A2.determinant() == 3
    assert A2.signature() == Signature(2, 0)
    assert A2.is_even()
    disc = A2.discriminant()
    assert disc.invariant_factors == (3,)
    assert disc.order == 3
    assert disc.l == 1
    assert not disc.is_2_elementary
    assert disc.delta is None


def test_hyperbolic_plane():
    h = parse_lattice_expr("U")
    assert h.gram == ((0, 1), (1, 0))
    assert h.determinant() == -1
    # zero diagonal exercises the congruence repair in the signature routine
    assert h.signature() == Signature(1, 1)
    assert h.discriminant().order == 1
    assert h.discriminant().delta == 0


def test_e8_negative_definite():
    e8 = parse_lattice_expr("E8(-1)")
    assert e8.rank == 8
    assert e8.determinant() == 1
    assert e8.signature() == Signature(0, 8)
    assert e8.is_even()
    assert e8.discriminant().delta == 0


def test_k3_lattice():
    k3 = parse_lattice_expr("2*E8(-1) + 3*U")
    assert k3.rank == 22
    assert k3.signature() == Signature(3, 19)
    assert k3.determinant() == -1


def test_ambient_gluing_lattice():
    amb = parse_lattice_expr("2*E8(-1) + 2*U")
    assert amb.rank == 20
    assert amb.signature() == Signature(2, 18)
    assert amb.determinant() == det_exact(amb.gram) == 1


def test_named_invariant_lattices():
    l18 = parse_lattice_expr("2*E8(-1) + U")
    assert l18.rank == 18
    assert l18.signature() == Signature(1, 17)
    d = l18.discriminant()
    assert (d.l, d.is_2_elementary, d.delta) == (0, True, 0)

    l17 = parse_lattice_expr("2*E8(-1) + <2>")
    assert l17.rank == 17
    assert l17.signature() == Signature(1, 16)
    d = l17.discriminant()
    assert (d.l, d.is_2_elementary, d.delta) == (1, True, 1)


def test_rank_one_lattice():
    assert parse_lattice_expr("<6>").gram == ((6,),)
    assert parse_lattice_expr("<-2>").signature() == Signature(0, 1)
    with pytest.raises(LatticeError, match="even and nonzero"):
        parse_lattice_expr("<0>")


def test_root_lattice_determinants():
    assert parse_lattice_expr("E8").determinant() == 1
    assert parse_lattice_expr("E7").determinant() == 2
    for n in (3, 4, 6, 8, 12):
        dn = parse_lattice_expr(f"D{n}")
        assert dn.rank == n
        assert dn.determinant() == 4
        assert dn.signature() == Signature(n, 0)


def test_smith_normal_form_a2():
    snf = A2.smith_normal_form()
    assert mat_mul(mat_mul(snf.U, A2.gram), snf.V) == snf.S
    assert snf.S == ((1, 0), (0, 3))


def test_smith_normal_form_twisted_plane():
    u2 = parse_lattice_expr("U").rescale(2)
    snf = u2.smith_normal_form()
    assert [snf.S[i][i] for i in range(2)] == [2, 2]
    d = u2.discriminant()
    assert d.invariant_factors == (2, 2)
    assert d.is_2_elementary
    assert d.delta == 0  # the (2,2,0) class


def test_smith_handles_singular_matrices():
    snf = IntLattice(((2, 2), (2, 2))).smith_normal_form()
    diag = [snf.S[i][i] for i in range(2)]
    assert diag == [2, 0]


def test_degenerate_gram_errors():
    degenerate = IntLattice(((2, 2), (2, 2)))
    assert degenerate.determinant() == 0
    with pytest.raises(LatticeError, match="degenerate"):
        degenerate.signature()
    with pytest.raises(LatticeError, match="degenerate"):
        degenerate.discriminant()


def test_delta_needs_2_elementary():
    assert A2.discriminant().delta is None


def test_odd_gram_not_even():
    assert not IntLattice(((1,),)).is_even()


def test_rescale():
    assert parse_lattice_expr("U").rescale(2).gram == ((0, 2), (2, 0))
    assert parse_lattice_expr("E8(-1)").rescale(-1).signature() == Signature(8, 0)
    assert A2.rescale(3).determinant() == 3**2 * 3
    assert A2.rescale(True) == A2
    assert A2.rescale(2**70).gram == ((2**71, 2**70), (2**70, 2**71))
    with pytest.raises(LatticeError, match="nonzero"):
        A2.rescale(0)


@pytest.mark.parametrize("k", [2.5, "2", None, 2.0], ids=["float", "str", "None", "integral float"])
def test_rescale_rejects_a_non_integer_factor(k):
    with pytest.raises(LatticeError, match="rescale factor must be an integer"):
        A2.rescale(k)


def test_direct_sum():
    total = parse_lattice_expr("U + E8(-1) + <2>")
    assert total.rank == 11
    assert total.signature() == Signature(2, 9)
    assert total.determinant() == -1 * 1 * 2
    # off-diagonal blocks vanish
    block = (0,) * 2 + (1,) * 8 + (2,)
    gram = total.gram
    assert all(not gram[i][j] for i in range(11) for j in range(11) if block[i] != block[j])
    ambient = parse_lattice_expr("2*E8(-1) + 2*U")
    assert ambient._pivots == IntLattice(ambient.gram)._eliminate() == (2, 18, 1)


def test_parse_lattice_expr():
    l18 = parse_lattice_expr("U + 2*E8(-1)")
    assert l18.rank == 18
    assert l18.signature() == Signature(1, 17)
    assert parse_lattice_expr("U(2)").gram == ((0, 2), (2, 0))
    assert parse_lattice_expr("<2> + 3*<-2>").rank == 4
    assert parse_lattice_expr("D12(-1)").determinant() == 4
    assert parse_lattice_expr("U + <2>").rank == 3
    mixed = parse_lattice_expr("U + D4(-1) + 7*<-2>")
    assert mixed.rank == 13
    d = mixed.discriminant()
    assert d.is_2_elementary and d.l == 9


def test_parse_lattice_expr_errors():
    with pytest.raises(LatticeError, match="empty term"):
        parse_lattice_expr("")
    with pytest.raises(LatticeError, match="cannot parse"):
        parse_lattice_expr("U + Q7")
    # U and <k> are the one spelling of each lattice: no H, no A1
    for text in ("H", "A1", "A1(-1)"):
        with pytest.raises(LatticeError, match="cannot parse"):
            parse_lattice_expr(text)
    with pytest.raises(LatticeError, match="multiplicity"):
        parse_lattice_expr("0*E8")
    with pytest.raises(LatticeError, match="even and nonzero"):
        parse_lattice_expr("<0>")
    with pytest.raises(LatticeError, match="n >= 3"):
        parse_lattice_expr("D2")
    for text in ("U(0)", "E8(-0)"):
        with pytest.raises(LatticeError, match="rescale factor must be nonzero"):
            parse_lattice_expr(text)
    # a rank-one term takes no rescale suffix
    with pytest.raises(LatticeError, match="cannot parse"):
        parse_lattice_expr("<2>(3)")
    with pytest.raises(LatticeError, match="even and nonzero"):
        parse_lattice_expr("<3>")
    # the D-rank check comes before the multiplicity check
    with pytest.raises(LatticeError, match="n >= 3"):
        parse_lattice_expr("0*D2")
    # numbers are ASCII digits only: Arabic-Indic two and four do not parse
    for text in ("\u0662*U", "D\u0664", "<\u0664>", "U(\u0662)"):
        with pytest.raises(LatticeError, match="cannot parse"):
            parse_lattice_expr(text)
    # a number with more digits than ``int`` converts names its slot; with
    # no limit set, the multiplicity would build the lattice, so none is tried
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        long2, long1 = "2" * (limit + 1), "1" * (limit + 1)
        for text, slot in (
            (f"<{long2}>", "rank-one square"),
            (f"{long2}*U", "multiplicity"),
            (f"D{'3' * (limit + 1)}", "D rank"),
            (f"U({long2})", "rescale factor"),
            (f"E8(-{long1})", "rescale factor"),
        ):
            with pytest.raises(LatticeError, match=f"^{slot} has over {limit} digits$"):
                parse_lattice_expr(text)


def test_module_doctests_pass():
    result = doctest.testmod(lattice_core)
    assert result.attempted > 0
    assert result.failed == 0


def test_smith_form_computed_once_per_lattice(monkeypatch):
    made = []
    identity = lattice_core._identity
    monkeypatch.setattr(lattice_core, "_identity", lambda n: made.append(n) or identity(n))
    lat = parse_lattice_expr("U(2) + E7(-1) + <2>")
    disc = lat.discriminant()
    snf = lat.smith_normal_form()
    assert lat.smith_normal_form() is snf
    assert lat.discriminant() == disc
    assert made == [lat.rank, lat.rank]  # U and V of one decomposition


def _count_eliminations(monkeypatch):
    runs = []
    eliminate = IntLattice._eliminate
    monkeypatch.setattr(IntLattice, "_eliminate", lambda self: runs.append(self) or eliminate(self))
    return runs


SUMMANDS = ("U(2)", "E7(-1)", "<2>", "3*<-2>")


def _parse_counting_eliminations(monkeypatch):
    """Parse the sum of ``SUMMANDS`` with eliminations counted from then on."""
    runs = _count_eliminations(monkeypatch)
    return parse_lattice_expr(" + ".join(SUMMANDS)), runs


def test_signature_then_determinant_share_one_elimination(monkeypatch):
    gram = parse_lattice_expr(" + ".join(SUMMANDS)).gram
    runs = _count_eliminations(monkeypatch)
    lat = IntLattice(gram)
    assert lat.signature() == Signature(2, 11)
    assert lat.determinant() == -128
    assert lat.signature() == Signature(2, 11)
    assert runs == [lat]
    monkeypatch.undo()
    parsed, runs = _parse_counting_eliminations(monkeypatch)
    assert parsed.signature() == Signature(2, 11)
    assert parsed.determinant() == -128
    assert parsed.signature() == Signature(2, 11)
    assert runs == []  # a parse reads its invariants off the grammar


def test_determinant_then_signature_share_one_elimination(monkeypatch):
    gram = parse_lattice_expr(" + ".join(SUMMANDS)).gram
    runs = _count_eliminations(monkeypatch)
    lat = IntLattice(gram)
    assert lat.determinant() == -128
    assert lat.signature() == Signature(2, 11)
    assert lat.determinant() == -128
    assert runs == [lat]
    other = IntLattice(lat.gram)
    assert other.determinant() == -128
    assert runs == [lat, other]  # the cache is per lattice, never shared
    monkeypatch.undo()
    parsed, runs = _parse_counting_eliminations(monkeypatch)
    assert parsed.determinant() == -128
    assert parsed.signature() == Signature(2, 11)
    assert parsed.determinant() == -128
    assert parse_lattice_expr("U + 2*E8(-1)").signature() == Signature(1, 17)
    assert runs == []


BASE_TERMS = ("U", "<2>", "<-2>", "<4>", "<-4>", "E7", "E8", *(f"D{n}" for n in range(3, 25)))


@pytest.mark.parametrize("base", BASE_TERMS)
def test_closed_form_pivots_match_elimination(base):
    """Each term's (t_plus, t_minus, det), read off the grammar, is what
    eliminating that term's own Gram matrix gives, under every rescale."""
    for s in (1, -1, 2, -2, 3, -3):
        text = f"<{int(base[1:-1]) * s}>" if base[0] == "<" else f"{base}({s})"
        lat = parse_lattice_expr(text)
        assert lat._pivots == IntLattice(lat.gram)._eliminate(), text


DEGENERATE = (((2, 2), (2, 2)), ((0,),), ((0, 0), (0, 0)), ((2, 0, 0), (0, 0, 0), (0, 0, 4)))


@pytest.mark.parametrize("gram", DEGENERATE)
@pytest.mark.parametrize("determinant_first", [True, False])
def test_degenerate_form_has_no_signature_in_either_call_order(gram, determinant_first):
    lat = IntLattice(gram)
    if determinant_first:
        assert lat.determinant() == 0
    with pytest.raises(LatticeError, match="degenerate"):
        lat.signature()
    assert lat.determinant() == 0
    with pytest.raises(LatticeError, match="degenerate"):
        lat.signature()
    with pytest.raises(LatticeError, match="degenerate"):
        lat.discriminant()


def test_equality_and_hash_ignore_the_cached_smith_form():
    gram = ((2, 1, 0), (1, -4, 3), (0, 3, 0))
    cached, plain = IntLattice(gram), IntLattice([list(row) for row in gram])
    cached.smith_normal_form()
    cached.signature()
    assert cached._smith is not None and cached._pivots is not None
    assert cached == plain and plain == cached
    assert hash(cached) == hash(plain)
    assert len({cached, plain}) == 1
    assert repr(cached) == repr(plain)
