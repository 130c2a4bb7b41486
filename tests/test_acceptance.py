"""Acceptance gate: one test per shipping criterion.

Each test prints a single `criterion NN: PASS` line (visible with -s; the
pytest -v result line mirrors it).  Criteria that need the optional
comparison catalog are split into separate tests that skip loudly while
the file is absent, rather than silently weakening the criterion.
"""

import json
import time

import pytest

from g2sum.building_blocks import euler_crosscheck
from g2sum.catalog import load_fano, load_joyce, load_nikulin
from g2sum.cli import main
from g2sum.enumerator import (
    count_matched_pairs,
    distinct_betti,
    enumerate_emb,
    enumerate_large_rank,
    enumerate_mirror,
    enumerate_seq,
    glue_betti,
)

MIRROR_LIST = [(4, 35), (6, 41), (8, 47), (10, 53), (12, 59), (14, 65),
               (16, 71), (18, 77), (20, 83), (22, 89), (24, 95)]

LARGE_RANK_LIST = sorted(
    [(18, b3) for b3 in (73, 75, 77, 81, 85, 87, 91, 97, 101, 105, 115, 157)]
    + [(20, b3) for b3 in (75, 77, 79, 83, 87, 89, 91, 93, 99, 103, 107, 117, 159)]
    + [(21, 76), (22, 93), (23, 78)]
)

SEQ_LIST = {
    3: sorted(list(range(70, 109, 2)) + [114, 116, 158]),
    5: list(range(64, 93, 4)),
    7: list(range(66, 95, 4)),
    9: list(range(68, 85, 4)),
    11: list(range(70, 83, 4)),
    13: list(range(72, 85, 4)),
    15: list(range(74, 87, 4)),
    17: [76],
}

TABLE1 = {
    2: sorted(list(range(61, 132, 2)) + list(range(145, 174, 4))),
    4: sorted(list(range(63, 134, 2)) + list(range(147, 176, 4))),
    6: sorted(list(range(65, 124, 2)) + list(range(149, 166, 4))),
    8: sorted(list(range(67, 122, 2)) + list(range(151, 164, 4))),
    10: sorted(list(range(69, 124, 2)) + list(range(153, 166, 4))),
    12: sorted(list(range(71, 126, 2)) + list(range(155, 168, 4))),
    14: [73, 75, 77, 81, 85, 87, 89, 91, 93, 97, 101, 105, 115, 157],
    16: [91, 95, 99, 103],
    18: [93],
}

B2_ZERO_LIST = sorted(list(range(67, 148, 2)) + list(range(151, 190, 2)) + [195, 197, 239])


def _passed(n, detail):
    print(f"criterion {n}: PASS — {detail}")


def _catalogs_complete():
    nik, fan = load_nikulin(), load_fano()
    return nik.complete and fan.complete_rank_1 and len(fan.families) >= 104


def _cli_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["rows"]


def test_criterion_01_mirror_list(capsys):
    start = time.perf_counter()
    rows = _cli_json(capsys, "betti-list", "mirror")
    elapsed = time.perf_counter() - start
    pairs = [(r["b2"], r["b3"]) for r in rows]
    assert pairs == MIRROR_LIST
    assert all(b3 == 3 * b2 + 23 for b2, b3 in pairs)
    assert elapsed < 1.0
    _passed("01", f"11 mirror pairs, b3 = 3*b2 + 23, {elapsed:.3f}s")


def test_criterion_02_large_rank_list():
    start = time.perf_counter()
    records = enumerate_large_rank(load_fano(), load_nikulin())
    pairs = list(distinct_betti(records))
    elapsed = time.perf_counter() - start
    assert len(records) == 38
    assert pairs == LARGE_RANK_LIST
    assert len(pairs) == 28
    for special in ((21, 76), (22, 93), (23, 78)):
        assert special in pairs
    assert elapsed < 1.0
    _passed("02", f"38 records, 28 distinct pairs, {elapsed:.3f}s")


def test_criterion_03_quartic_sequence_list(capsys):
    start = time.perf_counter()
    rows = _cli_json(capsys, "betti-list", "seq")
    elapsed = time.perf_counter() - start
    assert len(rows) == 57
    got = {}
    for r in rows:
        got.setdefault(r["b2"], []).append(r["b3"])
    assert got == SEQ_LIST
    assert elapsed < 1.0
    _passed("03", f"57 quartic-sequence pairs across b2 in 3..17, {elapsed:.3f}s")


def test_criterion_03b_sequence_joyce_overlap():
    joyce = load_joyce()
    if joyce is None:
        pytest.skip(
            "criterion 03b: SKIPPED — joyce.csv not shipped; "
            "when present, the quartic-sequence overlap must equal 10"
        )
    from g2sum.enumerator import compare_joyce

    cmp = compare_joyce(enumerate_seq(load_fano(), load_nikulin()), joyce)
    assert cmp.overlap_count == 10
    _passed("03b", "sequence overlap with comparison set = 10")


def test_criterion_04_table1(capsys):
    if not _catalogs_complete():
        pytest.skip("criterion 04: SKIPPED — catalogs incomplete, table reproduction not attempted")
    start = time.perf_counter()
    rows = _cli_json(capsys, "table1")
    elapsed = time.perf_counter() - start
    assert [r["b2"] for r in rows] == sorted(TABLE1)
    for row in rows:
        expected = TABLE1[row["b2"]]
        assert row["b3_values"] == expected, f"b2={row['b2']}"
        assert row["count"] == len(expected)
    assert [r["count"] for r in rows] == [44, 44, 35, 32, 32, 32, 14, 4, 1]
    assert elapsed < 10.0
    _passed("04", f"9 table rows, 238 value entries, {elapsed:.3f}s")


def test_criterion_05_b2_zero_list():
    records = enumerate_emb(load_fano(), load_nikulin())
    row = sorted({r.b3 for r in records if r.b2 == 0})
    assert len(row) == 64
    assert row == B2_ZERO_LIST
    assert row[0] == 67 and row[-1] == 239
    _passed("05", "64 distinct b3 values at b2 = 0, range 67..239")


def test_criterion_06_global_totals(emb_records, emb_records_104):
    counts_104 = count_matched_pairs(emb_records_104)
    counts_105 = count_matched_pairs(emb_records)
    # unordered-with-self over the 104 original families is the convention
    # the headline total is quoted under
    assert counts_104.unordered_with_self == 8094
    assert len(distinct_betti(emb_records_104)) == 302
    assert len(distinct_betti(emb_records)) == 302
    detail = (
        "8094 pairs (104 families, unordered incl. self; "
        f"ordered {counts_104.ordered}, excl. self {counts_104.unordered_no_self}); "
        f"with the erratum family: {counts_105.unordered_with_self} "
        f"(ordered {counts_105.ordered}, excl. self {counts_105.unordered_no_self}); "
        "302 distinct Betti pairs either way"
    )
    assert counts_105.unordered_with_self == 8211
    _passed("06", detail)


def test_criterion_06b_joyce_new_pairs(emb_records_104):
    joyce = load_joyce()
    if joyce is None:
        pytest.skip(
            "criterion 06b: SKIPPED — joyce.csv not shipped; "
            "when present, 256 of the 302 distinct pairs must be new"
        )
    from g2sum.enumerator import compare_joyce

    cmp = compare_joyce(emb_records_104, joyce)
    assert cmp.new_count == 256
    _passed("06b", "256 of 302 distinct pairs absent from comparison set")


def test_criterion_07_bounds(emb_records, nikulin, fano):
    records = (
        list(emb_records)
        + enumerate_mirror(nikulin)
        + enumerate_seq(fano, nikulin)
        + enumerate_large_rank(fano, nikulin)
    )
    for r in records:
        assert 0 <= r.b2 <= 24, r
        assert 35 <= r.b3 <= 239, r
    _passed("07", f"0 <= b2 <= 24 and 35 <= b3 <= 239 over {len(records)} records")


def test_criterion_08_parity(emb_records, nikulin, fano):
    even_modes = list(emb_records) + enumerate_mirror(nikulin)
    for r in even_modes:
        assert r.b2 % 2 == 0 and r.b3 % 2 == 1, r
    seq = enumerate_seq(fano, nikulin)
    for r in seq:
        assert r.b2 % 2 == 1 and r.b3 % 2 == 0, r
    _passed("08", f"parity verified on {len(even_modes)} even-b2 and {len(seq)} odd-b2 records")


def test_criterion_09_formula_identities(emb_records, nikulin, fano):
    records = (
        list(emb_records)
        + enumerate_mirror(nikulin)
        + enumerate_seq(fano, nikulin)
        + enumerate_large_rank(fano, nikulin)
    )
    for r in records:
        assert glue_betti(*r.blocks) == (r.b2, r.b3), r
        # the rank condition: (b2_bar - 1 - d) summed over both blocks
        assert sum(b.b2_bar - 1 - b.d for b in r.blocks) <= 22, r
    checked = 0
    for t in nikulin.triples:
        if t.key == (10, 10, 0):
            continue
        assert euler_crosscheck(t).ok, t.key
        checked += 1
    assert checked == 74
    _passed("09", f"closed form = glued form on {len(records)} records; 74 euler checks")


def test_criterion_10_engine_property_battery():
    from test_lattice_properties import (
        det_exact,
        iter_nondegenerate_grams,
        mat_mul,
        random_unimodular,
        transpose,
    )
    from g2sum.lattice_core import IntLattice, parse_lattice_expr

    start = time.perf_counter()
    checked = 0
    for rng, lat in iter_nondegenerate_grams(500):
        snf = lat.smith_normal_form()
        n = lat.rank
        assert mat_mul(mat_mul(snf.U, lat.gram), snf.V) == snf.S
        assert abs(det_exact(snf.U)) == 1 and abs(det_exact(snf.V)) == 1
        diag = [snf.S[i][i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        product = 1
        for dd in diag:
            product *= dd
        assert abs(lat.determinant()) == product
        t = random_unimodular(rng, n)
        conjugated = IntLattice(mat_mul(mat_mul(transpose(t), lat.gram), t))
        assert conjugated.signature() == lat.signature()
        checked += 1
    assert checked == 500
    assert parse_lattice_expr("2*E8(-1) + U").discriminant().delta == 0
    assert parse_lattice_expr("2*E8(-1) + <2>").discriminant().delta == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed("10", f"500 randomized Gram matrices verified in {elapsed:.2f}s")
