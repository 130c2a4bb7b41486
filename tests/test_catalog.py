"""Catalog ingestion, validation diagnostics, and derived queries."""

import subprocess
import sys

import pytest

from g2sum.catalog import (
    EMPTY,
    GENERIC,
    TWO_ELLIPTIC_CURVES,
    CatalogError,
    FanoFamily,
    FixedLocus,
    NikulinTriple,
    default_data_dir,
    fixed_locus,
    load_fano,
    load_joyce,
    load_nikulin,
    mirror_pairs,
    mirror_partner,
)

NIK_HEADER = "r,a,delta,source\n"
FANO_HEADER = "id,b2,b3,minus_k3,source\n"


def write(tmp_path, text, name="cat.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# --- packaged data ----------------------------------------------------------


def test_packaged_nikulin_catalog(nikulin):
    assert len(nikulin) == 75
    assert nikulin.complete
    assert nikulin.find(18, 0, 0).source == "U + 2*E8(-1)"
    assert nikulin.find(1, 2, 3) is None
    # sorted by (r, a, delta)
    keys = [t.key for t in nikulin.triples]
    assert keys == sorted(keys)
    assert keys[0] == (1, 1, 1) and keys[-1] == (20, 2, 1)


def test_packaged_nikulin_counts_by_rank(nikulin):
    by_r = [sum(1 for t in nikulin.triples if t.r == r) for r in range(1, 21)]
    assert by_r == [1, 3, 2, 2, 2, 4, 3, 4, 5, 11, 6, 5, 4, 6, 3, 3, 3, 5, 2, 1]
    assert sum(by_r) == 75


def test_packaged_fano_catalog(fano, fano_rank_one):
    assert len(fano.families) == 105
    assert fano.complete_rank_1
    assert len(fano_rank_one) == 17
    assert all(f.b2 == 1 for f in fano_rank_one)
    ids = [f.id for f in fano.families]
    assert len(set(ids)) == 105
    p3 = next(f for f in fano.families if f.id == "P3")
    assert (p3.b2, p3.b3, p3.minus_k3) == (1, 0, 64)
    assert p3.g == 64


def test_fano_genus_attribute(fano):
    for f in fano.families:
        assert f.g == f.b3 + f.minus_k3
        assert f.g % 2 == 0


def test_joyce_absent_by_default():
    assert load_joyce() is None


def test_data_dir_env_override(tmp_path, monkeypatch):
    write(tmp_path, NIK_HEADER + "2,0,0,U\n", "nikulin.csv")
    monkeypatch.setenv("G2SUM_DATA_DIR", str(tmp_path))
    assert default_data_dir() == tmp_path
    cat = load_nikulin()
    assert len(cat) == 1 and not cat.complete


# --- validation diagnostics ---------------------------------------------------


@pytest.mark.parametrize(
    "row,message",
    [
        ("3,2,1,x", "r - a must be even, got r=3, a=2"),
        ("21,1,1,x", "r must be in 1..20, got 21"),
        ("12,12,1,x", "a must be in 0..11, got 12"),
        ("2,4,0,x", "r - a must be nonnegative"),
        ("19,11,1,x", "r + a must be at most 22, got r=19, a=11"),
        ("2,0,2,x", "delta must be 0 or 1, got 2"),
        ("2,0,0", "expected 4 fields, got 3"),
        ("x,0,0,s", "field 'r' must be an integer"),
    ],
)
def test_nikulin_row_rejects(tmp_path, row, message):
    p = write(tmp_path, NIK_HEADER + row + "\n")
    with pytest.raises(CatalogError) as exc:
        load_nikulin(p)
    assert f"{p}:2: " in str(exc.value)
    assert message in str(exc.value)


def test_nikulin_duplicate_reported_on_second_line(tmp_path):
    p = write(tmp_path, NIK_HEADER + "2,0,0,x\n2,0,0,y\n")
    with pytest.raises(CatalogError, match=r":3: duplicate triple \(2,0,0\)"):
        load_nikulin(p)


def test_nikulin_header_check(tmp_path):
    p = write(tmp_path, "r,a,d,source\n2,0,0,x\n")
    with pytest.raises(CatalogError, match="expected header 'r,a,delta,source'"):
        load_nikulin(p)


def test_completeness_pragma_enforced(tmp_path):
    p = write(tmp_path, "#complete\n" + NIK_HEADER + "2,0,0,x\n")
    with pytest.raises(CatalogError, match="has 1 rows, expected 75"):
        load_nikulin(p)


def test_comments_and_blank_lines_skipped(tmp_path):
    p = write(tmp_path, "# a comment\n\n" + NIK_HEADER + "# another\n2,0,0,U\n\n")
    cat = load_nikulin(p)
    assert [t.key for t in cat.triples] == [(2, 0, 0)]


def test_missing_file_is_catalog_error(tmp_path):
    # A file that cannot be read is an I/O failure, not bad catalog data.
    missing = tmp_path / "no_such.csv"
    with pytest.raises(FileNotFoundError) as exc:
        load_nikulin(missing)
    assert not isinstance(exc.value, CatalogError)
    assert str(missing) in str(exc.value)


@pytest.mark.parametrize(
    "row,message",
    [
        ("A,1,3,64,x", "b3 must be even"),
        ("A,1,0,0,x", "-K\\^3 must be even and positive"),
        ("A,0,0,64,x", "b2 must be >= 1"),
        (",1,0,64,x", "family id must be nonempty"),
    ],
)
def test_fano_row_rejects(tmp_path, row, message):
    p = write(tmp_path, FANO_HEADER + row + "\n")
    with pytest.raises(CatalogError, match=message):
        load_fano(p)


def test_fano_duplicate_id(tmp_path):
    p = write(tmp_path, FANO_HEADER + "P3,1,0,64,x\nP3,1,0,54,y\n")
    with pytest.raises(CatalogError, match="duplicate family id 'P3'"):
        load_fano(p)


def test_fano_rank1_pragma(tmp_path):
    p = write(tmp_path, "#complete-rank-1\n" + FANO_HEADER + "A,1,0,64,x\n")
    with pytest.raises(CatalogError, match="expected 17"):
        load_fano(p)


def test_joyce_is_none_only_for_the_absent_default(tmp_path, monkeypatch):
    with pytest.raises(FileNotFoundError, match="absent.csv"):
        load_joyce(tmp_path / "absent.csv")
    monkeypatch.setenv("G2SUM_DATA_DIR", str(tmp_path))
    assert load_joyce() is None


def test_joyce_loads_when_given(tmp_path):
    p = write(tmp_path, "b2,b3\n1,2\n9,55\n")
    cat = load_joyce(p)
    assert cat.pairs == ((1, 2), (9, 55))
    assert not cat.complete


# --- fixed locus and mirrors --------------------------------------------------


def test_fixed_locus_special_classes():
    assert fixed_locus(NikulinTriple(10, 10, 0)).kind == EMPTY
    assert fixed_locus(NikulinTriple(10, 8, 0)).kind == TWO_ELLIPTIC_CURVES


def test_fixed_locus_generic_shape(nikulin):
    t = nikulin.find(17, 1, 1)
    loc = fixed_locus(t)
    assert loc.kind == GENERIC
    assert loc.genus == (22 - 17 - 1) // 2 == 2
    assert loc.rational_curves == (17 - 1) // 2 == 8
    assert loc.curve_count == 9
    assert loc.euler_sum == (2 - 2 * 2) + 2 * 8 == 14


@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
def test_generic_fixed_locus_needs_its_curves_in_every_build(optimize):
    with pytest.raises(ValueError, match="rational_curves"):
        FixedLocus(GENERIC).curve_count
    with pytest.raises(ValueError, match="genus"):
        FixedLocus(GENERIC, rational_curves=3).euler_sum
    probe = (
        "from g2sum.catalog import FixedLocus\n"
        "for name in ('curve_count', 'euler_sum'):\n"
        "    try:\n"
        "        getattr(FixedLocus('GENERIC'), name)\n"
        "    except ValueError as exc:\n"
        "        print(name, 'raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "curve_count raised: GENERIC fixed locus needs rational_curves",
        "euler_sum raised: GENERIC fixed locus needs genus and rational_curves",
    ]


def test_fixed_locus_curve_counts():
    assert fixed_locus(NikulinTriple(10, 10, 0)).curve_count == 0
    assert fixed_locus(NikulinTriple(10, 8, 0)).curve_count == 2
    assert fixed_locus(NikulinTriple(10, 8, 0)).euler_sum == 0


def test_mirror_partner(nikulin):
    t = nikulin.find(2, 0, 0)
    assert mirror_partner(t, nikulin).key == (18, 0, 0)
    # rank-10 classes can be their own partner
    t10 = nikulin.find(10, 4, 1)
    assert mirror_partner(t10, nikulin).key == (10, 4, 1)
    # excluded: r + a = 22, the (14,6,0) exception, and the free class
    assert mirror_partner(nikulin.find(13, 9, 1), nikulin) is None
    assert mirror_partner(nikulin.find(14, 6, 0), nikulin) is None
    assert mirror_partner(nikulin.find(10, 10, 0), nikulin) is None


def test_mirror_pairs_census(nikulin):
    pairs = mirror_pairs(nikulin)
    assert len(pairs) == 36
    assert all(t1.r <= t2.r for t1, t2 in pairs)
    assert all(t1.r + t2.r == 20 and t1.a == t2.a and t1.delta == t2.delta for t1, t2 in pairs)
    self_pairs = [p for p in pairs if p[0] is p[1]]
    assert len(self_pairs) == 10
    assert all((t.key != (10, 10, 0)) for t, _ in pairs)
    by_a = {}
    for t1, _ in pairs:
        by_a[t1.a] = by_a.get(t1.a, 0) + 1
    assert [by_a.get(a, 0) for a in range(11)] == [2, 3, 7, 4, 6, 3, 4, 2, 3, 1, 1]


def test_source_field_not_part_of_identity():
    assert NikulinTriple(2, 0, 0, source="U") == NikulinTriple(2, 0, 0, source="other")
    assert FanoFamily("A", 1, 0, 64, source="x") == FanoFamily("A", 1, 0, 64, source="y")
