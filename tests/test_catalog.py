"""Catalog ingestion, validation diagnostics, and derived queries."""

import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2sum.catalog import (
    EMPTY,
    GENERIC,
    TWO_ELLIPTIC_CURVES,
    CatalogError,
    FanoFamily,
    FixedLocus,
    NikulinTriple,
    _two_elementary_exists,
    default_data_dir,
    fixed_locus,
    load_fano,
    load_joyce,
    load_nikulin,
    mirror_key,
    mirror_pairs,
)

NIK_HEADER = "r,a,delta,source\n"
FANO_HEADER = "id,b2,b3,minus_k3,source\n"


def write(tmp_path, text, name="cat.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# --- packaged data ----------------------------------------------------------


def test_packaged_nikulin_catalog(nikulin, nikulin_by_key):
    assert len(nikulin) == 75
    assert nikulin.complete
    assert nikulin_by_key[18, 0, 0].source == "U + 2*E8(-1)"
    assert (1, 2, 3) not in nikulin_by_key
    # sorted by (r, a, delta)
    keys = [t.key for t in nikulin.triples]
    assert keys == sorted(keys)
    assert keys[0] == (1, 1, 1) and keys[-1] == (20, 2, 1)


def test_packaged_nikulin_counts_by_rank(nikulin):
    by_r = [sum(1 for t in nikulin.triples if t.r == r) for r in range(1, 21)]
    assert by_r == [1, 3, 2, 2, 2, 4, 3, 4, 5, 11, 6, 5, 4, 6, 3, 3, 3, 5, 2, 1]
    assert sum(by_r) == 75


def test_existence_theorem_derives_the_packaged_classes(nikulin):
    # Nikulin's Thm 3.6.2 for the invariant lattice, signature (1, r - 1), and
    # its K3 complement, signature (2, 20 - r), over every shape a row may have.
    derived = {
        (r, a, delta)
        for r in range(1, 21)
        for a in range(12)
        for delta in (0, 1)
        if _two_elementary_exists(1, r - 1, a, delta)
        and _two_elementary_exists(2, 20 - r, a, delta)
    }
    assert derived == {t.key for t in nikulin}


def _old_row_rules(r, a, delta):
    """``load_nikulin``'s row rules before the theorem took over its bounds."""
    return (
        1 <= r <= 20
        and 0 <= a <= 11
        and r - a >= 0
        and (r - a) % 2 == 0
        and r + a <= 22
        and delta in (0, 1)
        and _two_elementary_exists(1, r - 1, a, delta)
        and _two_elementary_exists(2, 20 - r, a, delta)
    )


def test_row_rules_accept_what_the_former_bounds_accepted(tmp_path, nikulin):
    # The dropped bounds (a <= 11, r - a even and nonnegative, r + a <= 22)
    # follow from the theorem: the loader accepts or rejects every row of a
    # box around the classes as the former rules did.
    p = tmp_path / "row.csv"
    accepted = set()
    for r in range(-3, 26):
        for a in range(-3, 40):
            for delta in range(-1, 3):
                p.write_text(f"{NIK_HEADER}{r},{a},{delta},x\n")
                try:
                    load_nikulin(p)
                except CatalogError as exc:
                    assert str(exc).startswith(f"{p}:2: "), exc
                    assert not _old_row_rules(r, a, delta), (r, a, delta)
                else:
                    assert _old_row_rules(r, a, delta), (r, a, delta)
                    accepted.add((r, a, delta))
    assert accepted == {t.key for t in nikulin}


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
        # r - a odd, a > 11, a > r and r + a > 22: no even 2-elementary
        # lattice of the invariant or the complement's signature has a, delta
        ("3,2,1,x", "signature (1, 2) has a=2, delta=1"),
        ("21,1,1,x", "r must be in 1..20, got 21"),
        ("12,12,1,x", "signature (2, 8) has a=12, delta=1"),
        ("2,4,0,x", "signature (1, 1) has a=4, delta=0"),
        ("19,11,1,x", "signature (2, 1) has a=11, delta=1"),
        ("2,0,2,x", "delta must be 0 or 1, got 2"),
        ("2,0,0", "expected 4 fields, got 3"),
        ("x,0,0,s", "field 'r' must be an integer"),
        # a sign and ASCII digits are an integer; int() would also read "_"
        # separators and other digits, here as (18, 0, 0) and (1, 1, 1)
        ("+21,1,1,x", "r must be in 1..20, got 21"),
        ("2,-2,0,x", "a must be nonnegative, got -2"),
        ("1_8,0,0,x", "field 'r' must be an integer, got '1_8'"),
        ("\u0661,1,1,x", "field 'r' must be an integer, got '\u0661'"),
        # only ASCII space and tab pad a line or a cell; str.strip() would
        # also take U+00A0 (no-break space) away and read 2
        ("\u00a02,0,0,x", "field 'r' must be an integer, got '\\xa02'"),
        ("2, \u00a00,0,x", "field 'a' must be an integer, got ' \\xa00'"),
        # U+2028 does not end a row; splitlines() would make two
        ("2,0,0,x\u20282,2,0,y", "expected 4 fields, got 7"),
        # no quoting: csv would read "2" as 2 and "U, <2>" as one cell
        ('"2",0,0,x', "cells are not quoted, so '\"' may not appear"),
        ('2,0,0,"U, <2>"', "cells are not quoted, so '\"' may not appear"),
    ],
)
def test_nikulin_row_rejects(tmp_path, row, message):
    p = write(tmp_path, NIK_HEADER + row + "\n")
    with pytest.raises(CatalogError) as exc:
        load_nikulin(p)
    assert f"{p}:2: " in str(exc.value)
    assert message in str(exc.value)


def test_only_a_line_ending_ends_a_row(tmp_path):
    # U+2028, U+0085 and form feed stay inside a source cell, a tab pads a
    # line, and each row keeps its own line number.
    rows = "2,0,0,x\u2028y\n2,2,0,a\u0085b\x0cc\n\t3,1,1, z \n"
    p = write(tmp_path, NIK_HEADER + rows)
    cat = load_nikulin(p)
    assert [(t.key, t.source) for t in cat] == [
        ((2, 0, 0), "x\u2028y"),
        ((2, 2, 0), "a\u0085b\x0cc"),
        ((3, 1, 1), "z"),
    ]
    p = write(tmp_path, NIK_HEADER + rows + "2,0,0,w\n")
    with pytest.raises(CatalogError) as exc:
        load_nikulin(p)
    assert str(exc.value) == f"{p}:5: duplicate triple (2,0,0)"


def test_nikulin_duplicate_reported_on_second_line(tmp_path):
    p = write(tmp_path, NIK_HEADER + "2,0,0,x\n2,0,0,y\n")
    with pytest.raises(CatalogError, match=r":3: duplicate triple \(2,0,0\)"):
        load_nikulin(p)


def test_nikulin_header_check(tmp_path):
    p = write(tmp_path, "r,a,d,source\n2,0,0,x\n")
    with pytest.raises(CatalogError, match="expected header 'r,a,delta,source'"):
        load_nikulin(p)


@pytest.mark.parametrize(
    "header",
    [
        # only ASCII space and tab pad a header cell; str.strip() took U+00A0
        "r,a,delta,source\u00a0",
        # a byte-order mark is text, not padding
        "\ufeffr,a,delta,source",
        '"r",a,delta,source',
    ],
)
def test_header_must_spell_the_columns(tmp_path, header):
    p = write(tmp_path, header + "\n2,0,0,x\n")
    with pytest.raises(CatalogError) as exc:
        load_nikulin(p)
    assert str(exc.value) == f"{p}:1: expected header 'r,a,delta,source', got {header!r}"


def test_completeness_pragma_enforced(tmp_path):
    p = write(tmp_path, "#complete\n" + NIK_HEADER + "2,0,0,x\n")
    with pytest.raises(CatalogError, match="has 1 rows, expected 75"):
        load_nikulin(p)


@pytest.mark.parametrize(
    "comment,complete",
    [
        (" # \tcomplete\t", True),
        # a pragma is spelled exactly: one "#", then ASCII padding only
        ("#\u00a0complete", False),
        ("##complete", False),
        ("#complete-rank-1", False),
    ],
)
def test_only_an_exact_pragma_declares_completeness(tmp_path, comment, complete):
    p = write(tmp_path, comment + "\n" + NIK_HEADER + "2,0,0,x\n")
    if complete:
        with pytest.raises(CatalogError, match="has 1 rows, expected 75"):
            load_nikulin(p)
    else:
        cat = load_nikulin(p)
        assert len(cat) == 1 and not cat.complete


@pytest.mark.parametrize(
    "source",
    ["\u00a0x", "x\u2028", "\ufeffx", "x" * 140_000],
    ids=["nbsp", "line-separator", "bom", "140000-chars"],
)
def test_text_cells_lose_only_ascii_padding(tmp_path, source):
    # str.strip() took the Unicode whitespace away, and csv refused a cell
    # over 131 072 characters with its own error.
    p = write(tmp_path, NIK_HEADER + f"2,0,0, \t{source} \n")
    assert [t.source for t in load_nikulin(p)] == [source]
    p = write(tmp_path, FANO_HEADER + f"\t{source} ,1,0,64,{source}\n")
    assert [(f.id, f.source) for f in load_fano(p)] == [(source, source)]


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
        # every smooth Fano threefold has Picard rank at most 10
        ("11.1,11,0,2,x", "b2 must be at most 10, got 11"),
        (",1,0,64,x", "family id must be nonempty"),
        ("A,1_0,0,64,x", "field 'b2' must be an integer, got '1_0'"),
        ("A,1,0,\uff16\uff14,x", "field 'minus_k3' must be an integer, got '\uff16\uff14'"),
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


@pytest.mark.parametrize(
    "row,message",
    [
        ("-1,5", "Betti numbers must be nonnegative"),
        (" 1_9,5", "field 'b2' must be an integer, got '1_9'"),
        ("9,\u0665\u0665", "field 'b3' must be an integer, got '\u0665\u0665'"),
    ],
)
def test_joyce_row_rejects(tmp_path, row, message):
    p = write(tmp_path, "b2,b3\n" + row + "\n")
    with pytest.raises(CatalogError) as exc:
        load_joyce(p)
    assert f"{p}:2: {message}" in str(exc.value)


def test_joyce_rejects_a_repeated_pair(tmp_path):
    p = write(tmp_path, "b2,b3\n1,5\n9,55\n1,5\n")
    with pytest.raises(CatalogError) as exc:
        load_joyce(p)
    assert str(exc.value) == f"{p}:4: duplicate pair (1, 5)"


def test_joyce_checks_nonnegativity_before_repeats(tmp_path):
    p = write(tmp_path, "b2,b3\n-1,5\n-1,5\n")
    with pytest.raises(CatalogError, match=":2: Betti numbers must be nonnegative"):
        load_joyce(p)


# ``int`` converts at most this many digits; 0 means no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int digit limit")
@pytest.mark.parametrize(
    "load,text,field",
    [
        (load_nikulin, NIK_HEADER + "{n},0,0,x\n", "r"),
        (load_fano, FANO_HEADER + "A,1,{n},64,x\n", "b3"),
        (load_joyce, "b2,b3\n2,{n}\n", "b3"),
    ],
    ids=["nikulin", "fano", "joyce"],
)
def test_integer_cell_over_the_digit_limit_is_a_catalog_error(tmp_path, load, text, field):
    p = write(tmp_path, text.format(n="9" * (INT_DIGITS + 1)))
    with pytest.raises(CatalogError) as exc:
        load(p)
    assert str(exc.value) == f"{p}:2: field {field!r} has over {INT_DIGITS} digits"
    # as many digits as the limit still make an integer, 0 (a bad r, for Nikulin)
    p = write(tmp_path, text.format(n="0" * INT_DIGITS))
    try:
        load(p)
    except CatalogError as exc:
        assert str(exc) == f"{p}:2: r must be in 1..20, got 0"


def test_joyce_loads_when_given(tmp_path):
    p = write(tmp_path, "b2,b3\n1,2\n9,55\n")
    cat = load_joyce(p)
    assert cat.pairs == ((1, 2), (9, 55))
    assert not cat.complete


# --- the line grammar against a regex oracle ---------------------------------

# The ``g2sum.catalog`` docstring's grammar as whole-line regexes over a line
# as written: ``PAD`` is the only padding, around a line and around a cell.
PAD = "[ \t]*"
COMMENT = re.compile(PAD + "#.*")
PRAGMA = re.compile(PAD + "#" + PAD + "(complete|complete-rank-1)" + PAD)
INTEGER_CELL = PAD + "([+-]?[0-9]+)" + PAD
JOYCE_ROW = re.compile(INTEGER_CELL + "," + INTEGER_CELL)
TEXT_CELL = PAD + '([^,"]*?)' + PAD
FANO_MIDDLE = ",1,0,64,"
FANO_ROW = re.compile(TEXT_CELL + FANO_MIDDLE + TEXT_CELL)

# The alphabet: structure, ASCII and Unicode padding, and digits ``int``
# reads but a catalog does not.  No "\r" or "\n": ``read_text`` makes those
# line endings.
PADS = " \t\u00a0\u2028\u0085\ufeff"
DIGITS = "0123456789+-_\uff10\uff17\u0660\u0667"
ALPHABET = DIGITS + PADS + ',"#'

padding = st.text(PADS, max_size=2)
ascii_padding = st.text(" \t", max_size=2)
integer_cell = st.tuples(ascii_padding, st.integers(-1, 99).map(str), ascii_padding)
row = st.tuples(integer_cell.map("".join), integer_cell.map("".join)).map(",".join)
comment = st.tuples(
    ascii_padding,
    st.sampled_from(["#", "##"]),
    padding,
    st.sampled_from(["complete", "complete-rank-1"]),
    ascii_padding,
).map("".join)
noisy_cell = st.tuples(padding, st.text(DIGITS, max_size=3), padding).map("".join)
noise = st.one_of(
    st.lists(noisy_cell, min_size=1, max_size=3).map(",".join), st.text(ALPHABET, max_size=10)
)


def oracle(data_lines, read_row):
    """``(values, pragmas)`` read from the lines after the header, or the
    number of the first line that ``read_row`` refuses (returns None for)."""
    values, pragmas = [], set()
    for lineno, line in enumerate(data_lines, start=2):
        if m := PRAGMA.fullmatch(line):
            pragmas.add(m[1])
        elif COMMENT.fullmatch(line) or re.fullmatch(PAD, line):
            continue
        else:
            value = read_row(line, values)
            if value is None:
                return lineno
            values.append(value)
    return values, pragmas


def joyce_row(line, earlier):
    m = JOYCE_ROW.fullmatch(line)
    if m is None or int(m[1]) < 0 or int(m[2]) < 0 or (int(m[1]), int(m[2])) in earlier:
        return None
    return (int(m[1]), int(m[2]))


def fano_row(line, earlier):
    m = FANO_ROW.fullmatch(line)
    if m is None or not m[1] or m[1] in [fid for fid, _ in earlier]:
        return None
    return (m[1], m[2])


def load_or_fault(load, path):
    """The catalog ``load`` reads, or the line its fault names (0 for none)."""
    try:
        return load(path)
    except CatalogError as exc:
        m = re.match(re.escape(str(path)) + r":(\d+)?", str(exc))
        assert m is not None, exc
        return int(m[1] or 0)


grammar_settings = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@grammar_settings
@given(
    st.lists(st.one_of(row, comment), max_size=4),
    st.lists(noise, max_size=1),
    st.integers(0, 4),
)
def test_integer_cells_follow_the_grammar(tmp_path, data_lines, noisy, at):
    # At most one line drawn from the whole alphabet, so that most files
    # reach the pragma check after their rows.
    data_lines[at:at] = noisy
    p = write(tmp_path, "\n".join(["b2,b3", *data_lines]) + "\n")
    expected = oracle(data_lines, joyce_row)
    if not isinstance(expected, int) and "complete" in expected[1]:
        expected = 0  # fewer than the 252 rows the pragma demands
    got = load_or_fault(load_joyce, p)
    if isinstance(expected, int):
        assert got == expected
    else:
        assert (got.pairs, got.complete) == (tuple(expected[0]), False)


@grammar_settings
@given(
    st.lists(
        st.tuples(st.text(ALPHABET, max_size=6), st.text(ALPHABET, max_size=6)),
        min_size=1,
        max_size=3,
    )
)
def test_text_cells_follow_the_grammar(tmp_path, cells):
    data_lines = [fid + FANO_MIDDLE + source for fid, source in cells]
    p = write(tmp_path, "\n".join([FANO_HEADER.strip(), *data_lines]) + "\n")
    expected = oracle(data_lines, fano_row)
    got = load_or_fault(load_fano, p)
    if isinstance(expected, int):
        assert got == expected
    else:
        assert [(f.id, f.source) for f in got] == expected[0]


# --- fixed locus and mirrors --------------------------------------------------


def test_fixed_locus_special_classes():
    assert fixed_locus(NikulinTriple(10, 10, 0)).kind == EMPTY
    assert fixed_locus(NikulinTriple(10, 8, 0)).kind == TWO_ELLIPTIC_CURVES


def test_fixed_locus_generic_shape(nikulin_by_key):
    t = nikulin_by_key[17, 1, 1]
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


def test_mirror_partner(nikulin_by_key):
    t = nikulin_by_key[2, 0, 0]
    assert nikulin_by_key[mirror_key(t)].key == (18, 0, 0)
    # rank-10 classes can be their own partner
    t10 = nikulin_by_key[10, 4, 1]
    assert nikulin_by_key[mirror_key(t10)].key == (10, 4, 1)
    # excluded: a partner shape that is no class, as (7,9,1) for (13,9,1)
    # with r + a = 22 and (6,6,0) for (14,6,0), and the free class
    assert mirror_key(nikulin_by_key[13, 9, 1]) is None
    assert mirror_key(nikulin_by_key[14, 6, 0]) is None
    assert mirror_key(nikulin_by_key[10, 10, 0]) is None


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
