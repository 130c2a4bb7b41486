"""Command-line behavior: subcommands, formats, exit codes, streams."""

import csv
import errno
import gc
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from g2sum.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

MIRROR_ROWS = [(4, 35), (6, 41), (8, 47), (10, 53), (12, 59), (14, 65),
               (16, 71), (18, 77), (20, 83), (22, 89), (24, 95)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate")
    assert code == EXIT_OK
    assert "nikulin" in out and "75" in out and "complete" in out
    assert "fano" in out and "105" in out
    assert "joyce" in out and "absent" in out


def test_banner_goes_to_stderr(capsys):
    _, out, err = run_cli(capsys, "betti-list", "mirror")
    assert err.startswith("# data: nikulin 75 rows (complete)")
    assert "# data" not in out


def test_betti_list_mirror_text(capsys):
    code, out, _ = run_cli(capsys, "betti-list", "mirror")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["b2", "b3"]
    parsed = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    assert parsed == MIRROR_ROWS


def test_betti_list_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "betti-list", "mirror", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [(r["b2"], r["b3"]) for r in rows] == MIRROR_ROWS


def test_betti_list_csv(capsys):
    code, out, _ = run_cli(capsys, "betti-list", "seq", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 57
    assert rows[0] == {"b2": "3", "b3": "70"}


def test_enumerate_mirror_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "mirror", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 36
    first = rows[0]
    assert first["b2"] == "4" and first["b3"] == "35"
    assert first["mode"] == "MIRROR"
    assert first["condition"] == "BOTH"
    assert first["block1"] == "involution(10,10,1)" == first["block2"]


def test_enumerate_mode_aliases(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "emb-a", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 5198
    assert all(r["mode"] == "EMB_A" for r in rows)
    code, out2, _ = run_cli(capsys, "enumerate", "EMB_A", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out2)["rows"] == rows


def test_enumerate_emb_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "emb", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 8211
    assert all(r["simply_connected"] for r in rows)


def test_table1_json(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["b2"] for r in rows] == list(range(2, 19, 2))
    assert [r["count"] for r in rows] == [44, 44, 35, 32, 32, 32, 14, 4, 1]
    assert rows[-1] == {"b2": 18, "count": 1, "b3_values": [93]}
    assert rows[7]["b3_values"] == [91, 95, 99, 103]


def test_table1_text(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 9  # header + one row per even b2
    assert lines[-1].split()[:2] == ["18", "1"]


def test_crosscheck_reports_ok(capsys):
    code, out, _ = run_cli(capsys, "crosscheck")
    assert code == EXIT_OK
    assert "euler_crosscheck" in out and "OK" in out
    assert "closed_vs_glue" in out
    assert "8427" in out  # 8211 + 36 + 142 + 38 records re-derived
    assert "NOT_AVAILABLE" in out  # joyce comparison absent


def test_crosscheck_json(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--format", "json")
    assert code == EXIT_OK
    rows = {r["check"]: r for r in json.loads(out)["rows"]}
    assert rows["euler_crosscheck"]["items"] == 74
    assert rows["closed_vs_glue"]["status"] == "OK"
    assert rows["pair_totals"]["items"] == 8211


@pytest.fixture
def enumerator_calls(monkeypatch):
    """Calls of the block builders, certificates and records, as the enumerator makes them."""
    import g2sum.enumerator as enumerator

    calls = Counter()

    def counted(name):
        real = getattr(enumerator, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in (
        "fano_block",
        "involution_block",
        "quartic_blowup_block",
        "matching_condition",
        "G2Record",
    ):
        monkeypatch.setattr(enumerator, name, counted(name))
    return calls


def test_crosscheck_builds_one_pool_and_certifies_each_lattice_pair_once(capsys, enumerator_calls):
    code, out, _ = run_cli(capsys, "crosscheck")
    assert code == EXIT_OK and "8427" in out
    # 105 Fano families, the 74 involution classes with a block, the quartic.
    blocks = ("fano_block", "involution_block", "quartic_blowup_block")
    assert [enumerator_calls[name] for name in blocks] == [105, 74, 1]
    # One certificate per unordered pair of lattice classes of the four spaces.
    assert enumerator_calls["matching_condition"] == 420
    assert enumerator_calls["G2Record"] == 0


@pytest.mark.parametrize(
    "argv",
    [("table1",), ("crosscheck",)]
    + [
        ("betti-list", mode)
        for mode in ("emb", "emb_a", "emb_b", "emb_c", "mirror", "seq", "large_rank")
    ],
    ids=" ".join,
)
def test_report_commands_build_no_records(capsys, enumerator_calls, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and out
    assert enumerator_calls["G2Record"] == 0


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "nik.csv"
    bad.write_text("r,a,delta,source\n3,2,1,x\n")
    code, out, err = run_cli(capsys, "validate", "--nikulin", str(bad))
    assert code == EXIT_VALIDATION
    assert f"{bad}:2: r - a must be even" in err


def test_non_utf8_catalog_is_a_validation_failure(tmp_path, capsys):
    bad = tmp_path / "nik.csv"
    bad.write_bytes(b"r,a,delta,source\n2,0,0,U\xff\n")
    code, out, err = run_cli(capsys, "validate", "--nikulin", str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"g2sum: {bad}: catalog is not UTF-8 text")


def test_incomplete_catalog_with_an_unpaired_6_6_0_row_keeps_the_mirror_list(tmp_path, capsys):
    # (6,6,0) has the shape of the mirror partner of the excluded (14,6,0)
    # class; the pair must be left out, as the packaged catalog leaves it out.
    import g2sum.catalog

    packaged = (g2sum.catalog.default_data_dir() / "nikulin.csv").read_text()
    rows = [line for line in packaged.splitlines() if line.strip() != "#complete"]
    assert len(rows) < len(packaged.splitlines())
    user = tmp_path / "nik.csv"
    user.write_text("\n".join(rows + ["6,6,0,6*<-2>"]) + "\n")
    code, expected, _ = run_cli(capsys, "betti-list", "mirror")
    assert code == EXIT_OK
    code, out, err = run_cli(capsys, "betti-list", "mirror", "--nikulin", str(user))
    assert code == EXIT_OK, err
    assert err.startswith("# data: nikulin 76 rows (INCOMPLETE)")
    assert out == expected


def test_missing_catalog_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--nikulin", str(tmp_path / "gone.csv"))
    assert code == EXIT_IO
    assert "gone.csv" in err


def test_missing_explicit_joyce_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "crosscheck", "--joyce", str(tmp_path / "joyce.csv"))
    assert code == EXIT_IO


@pytest.mark.parametrize("flag", ["--nikulin", "--fano", "--joyce"])
def test_failed_catalog_read_is_io_error(tmp_path, capsys, monkeypatch, flag):
    target = tmp_path / "catalog.csv"
    target.write_text("unread\n")
    read_text = pathlib.Path.read_text

    def failing_read(self, *args, **kwargs):
        if self == target:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", failing_read)
    code, out, err = run_cli(capsys, "validate", flag, str(target))
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("g2sum: cannot read catalog: ")
    assert str(target) in err


def test_directory_as_catalog_is_io_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", "--fano", str(tmp_path))
    assert code == EXIT_IO
    assert out == ""
    assert str(tmp_path) in err


def test_joyce_comparison_when_supplied(tmp_path, capsys):
    joyce = tmp_path / "joyce.csv"
    # two pairs from the matched-pair table, one foreign
    joyce.write_text("b2,b3\n0,67\n18,93\n1,1\n")
    code, out, _ = run_cli(capsys, "crosscheck", "--joyce", str(joyce), "--format", "json")
    assert code == EXIT_OK
    rows = {r["check"]: r for r in json.loads(out)["rows"]}
    assert rows["joyce_comparison"]["items"] == 3
    status = rows["joyce_comparison"]["status"]
    assert "overlap=2" in status
    assert "new=300" in status  # 302 distinct matched pairs minus the 2 shared


def test_data_dir_env(tmp_path, capsys, monkeypatch):
    import g2sum.catalog

    packaged = g2sum.catalog.default_data_dir()
    for name in ("nikulin.csv", "fano.csv"):
        shutil.copy(packaged / name, tmp_path / name)
    monkeypatch.setenv("G2SUM_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "validate")
    assert code == EXIT_OK
    assert "75" in out


def test_unknown_mode_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "bogus"])
    assert exc.value.code == 2
    assert "unknown mode 'bogus'" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcmd"])
    assert exc.value.code == 2


def test_console_script_installed():
    exe = shutil.which("g2sum")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run(
        [exe, "table1", "--format", "json"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert rows[-1] == {"b2": 18, "count": 1, "b3_values": [93]}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "g2sum.cli", "betti-list", "mirror", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 11


def test_closed_stdout_is_io_error_without_traceback():
    # The text output far outgrows a pipe's buffer, so the child is still
    # writing when its reader goes away, as under `| head -1`.
    with subprocess.Popen(
        [sys.executable, "-m", "g2sum.cli", "enumerate", "emb"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline().split()[:2] == ["b2", "b3"]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_IO
    assert "Traceback" not in err
    assert "g2sum: cannot write output:" in err



def test_cli_start_imports_no_rational_arithmetic():
    probe = "import sys, g2sum.cli; print(*{'fractions', 'decimal', 'numbers'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_start_imports_no_dataclasses_inspect_or_logging():
    # Only what the import itself adds counts, so a site hook that loads one
    # of these modules before g2sum cannot fail the test.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import g2sum.cli\n"
        "print(*sorted({'dataclasses', 'inspect', 'logging'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# A closed-form/gluing mismatch planted in the gluing formula: b3 shifted by 4.
PLANTED_GLUE_BUG = """
import sys
import g2sum.enumerator as enumerator
from g2sum.cli import main

real_glue_betti = enumerator.glue_betti


def shifted_glue_betti(block1, block2):
    b2, b3 = real_glue_betti(block1, block2)
    return (b2, b3 + 4)


enumerator.glue_betti = shifted_glue_betti
sys.exit(main(sys.argv[1:]))
"""


# A bug planted in a block formula as the enumerator calls it: every
# involution block's b3_bar shifted by 2.  The enumerator's closed form reads
# the catalog row, not the block, so it must still catch the mismatch.
PLANTED_BLOCK_BUG = """
import sys
import g2sum.enumerator as enumerator
from g2sum.building_blocks import BuildingBlock
from g2sum.cli import main

real_involution_block = enumerator.involution_block


def shifted_involution_block(t):
    b = real_involution_block(t)
    return BuildingBlock(
        b.kind, b.label, b.b2_bar, b.b3_bar + 2, b.d, b.rank, b.l_bound, b.triple, b.fano
    )


enumerator.involution_block = shifted_involution_block
sys.exit(main(sys.argv[1:]))
"""


# A certificate without condition A planted for one class of pairs: two
# rank-1 Fano families.  Each such pair is admitted by clause EMB_A, so the
# enumerator must refuse it.
PLANTED_COND_A_BUG = """
import sys
import g2sum.enumerator as enumerator
from g2sum.cli import main
from g2sum.embedding import COND_B, INCONCLUSIVE, EmbeddingVerdict, MatchCertificate

real_matching_condition = enumerator.matching_condition


def cond_b_only(block1, block2):
    if block1.fano is not None and block2.fano is not None and block1.rank == block2.rank == 1:
        return MatchCertificate(COND_B, EmbeddingVerdict(INCONCLUSIVE, "numeric"))
    return real_matching_condition(block1, block2)


enumerator.matching_condition = cond_b_only
sys.exit(main(sys.argv[1:]))
"""


# A bug planted in a block formula that breaks the rank condition: every
# Fano block's b2_bar raised by 23.  The closed form does not read b2_bar, so
# only the rank check can catch it.
PLANTED_RANK_BUG = """
import sys
import g2sum.enumerator as enumerator
from g2sum.building_blocks import BuildingBlock
from g2sum.cli import main

real_fano_block = enumerator.fano_block


def inflated_fano_block(f):
    b = real_fano_block(f)
    return BuildingBlock(
        b.kind, b.label, b.b2_bar + 23, b.b3_bar, b.d, b.rank, b.l_bound,
        triple=b.triple, fano=b.fano,
    )


enumerator.fano_block = inflated_fano_block
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "planted, argv, message",
    [
        (PLANTED_GLUE_BUG, ("betti-list", "emb"), r"closed-form/glue disagreement"),
        (PLANTED_GLUE_BUG, ("crosscheck",), r"closed-form/glue disagreement"),
        (PLANTED_BLOCK_BUG, ("betti-list", "mirror"), r"closed-form/glue disagreement"),
        (
            PLANTED_COND_A_BUG,
            ("betti-list", "emb"),
            r"(?m)^g2sum: EMB_A pair lost condition A: fano\(\S+\) x fano\(\S+\)$",
        ),
        (
            PLANTED_RANK_BUG,
            ("betti-list", "emb"),
            r"(?m)^g2sum: EMB_A pair fano\(P3\) x fano\(P3\) breaks the rank condition",
        ),
        (
            PLANTED_RANK_BUG,
            ("crosscheck",),
            r"(?m)^g2sum: EMB_A pair fano\(P3\) x fano\(P3\) breaks the rank condition",
        ),
    ],
    ids=[
        "betti-list emb",
        "crosscheck",
        "block-bug betti-list mirror",
        "cond-a betti-list emb",
        "rank-bug betti-list emb",
        "rank-bug crosscheck",
    ],
)
def test_identity_failure_exits_1_in_every_build(optimize, planted, argv, message):
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", planted, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert re.search(message, proc.stderr), proc.stderr
    assert "OK" not in proc.stdout.split()


# An odd fixed-curve Euler sum planted for one involution class: the
# quotient's Euler characteristic 24 + 3 * euler_sum is then odd.
PLANTED_ODD_EULER_SUM = """
import sys
import g2sum.building_blocks as building_blocks
from g2sum.cli import main

real_fixed_locus = building_blocks.fixed_locus


class OddLocus:
    def __init__(self, locus):
        self.kind = locus.kind
        self.curve_count = locus.curve_count
        self.euler_sum = locus.euler_sum + 1


def odd_fixed_locus(t):
    locus = real_fixed_locus(t)
    return OddLocus(locus) if t.key == (17, 1, 1) else locus


building_blocks.fixed_locus = odd_fixed_locus
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
def test_odd_euler_sum_fails_crosscheck_in_every_build(optimize):
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", PLANTED_ODD_EULER_SUM, "crosscheck"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert "Traceback" not in proc.stderr
    assert "fixed-curve recomputation disagrees for (17, 1, 1)" in proc.stderr
    assert "fixed-curve Euler sum 15" in proc.stderr
    assert proc.stdout.split()[3:6] == ["euler_crosscheck", "74", "FAIL"]


def test_internal_assertion_is_not_a_catalog_failure(monkeypatch, capsys):
    import g2sum.cli as cli

    def planted(*_catalogs_and_spaces):
        raise AssertionError("planted internal bug")

    monkeypatch.setattr(cli, "_census", planted)
    with pytest.raises(AssertionError, match="planted internal bug"):
        main(["betti-list", "mirror"])
    err = capsys.readouterr().err
    assert not any(line.startswith("g2sum:") for line in err.splitlines())


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The cyclic collector's state as the test starts; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_main_runs_without_cyclic_gc_and_restores_it(monkeypatch, capsys, collector):
    import g2sum.cli as cli

    seen = []
    real = cli._census

    def noting(*catalogs_and_spaces):
        seen.append(gc.isenabled())
        return real(*catalogs_and_spaces)

    monkeypatch.setattr(cli, "_census", noting)
    assert main(["betti-list", "mirror"]) == EXIT_OK
    assert gc.isenabled() is collector
    assert seen == [False]
    assert len(capsys.readouterr().out.splitlines()) == 12


def test_main_restores_gc_after_a_failed_command(tmp_path, capsys, collector):
    # The large-rank pairs need (18,0,0); its absence is a CatalogError raised
    # by the command, not by loading.
    small = tmp_path / "nik.csv"
    small.write_text("r,a,delta,source\n1,1,1,x\n2,2,0,y\n")
    assert main(["betti-list", "large_rank", "--nikulin", str(small)]) == EXIT_VALIDATION
    assert gc.isenabled() is collector
    assert "needs triple (18, 0, 0)" in capsys.readouterr().err
