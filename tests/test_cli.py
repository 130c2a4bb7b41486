"""Command-line behavior: subcommands, formats, exit codes, streams."""

import contextlib
import csv
import errno
import functools
import gc
import hashlib
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

import g2sum
from g2sum.cli import _MODE_SPACES, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from g2sum.enumerator import (
    enumerate_emb,
    enumerate_large_rank,
    enumerate_mirror,
    enumerate_seq,
)
from test_golden_output import COMMANDS as GOLDEN

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
    "mode, blocks, certificates",
    [
        # Every mode builds the whole pool and certifies only its own spaces.
        ("emb_a", [105, 74, 1], 20),
        ("emb_b", [105, 74, 1], 135),
        ("emb_c", [105, 74, 1], 225),
        ("emb", [105, 74, 1], 380),
        ("mirror", [105, 74, 1], 36),
        ("seq", [105, 74, 1], 47),
        ("large_rank", [105, 74, 1], 4),
    ],
)
def test_each_emb_mode_decides_only_its_clauses(
    capsys, enumerator_calls, mode, blocks, certificates
):
    code, out, _ = run_cli(capsys, "betti-list", mode)
    assert code == EXIT_OK and out
    names = ("fano_block", "involution_block", "quartic_blowup_block")
    assert [enumerator_calls[name] for name in names] == blocks
    assert enumerator_calls["matching_condition"] == certificates


MODES = ("emb", "emb_a", "emb_b", "emb_c", "mirror", "seq", "large_rank")


@pytest.mark.parametrize(
    "argv",
    [("table1",), ("crosscheck",)]
    + [("betti-list", mode) for mode in MODES]
    + [("enumerate", mode, "--format", fmt) for mode in MODES for fmt in ("text", "csv", "json")],
    ids=" ".join,
)
def test_report_commands_build_no_records(capsys, enumerator_calls, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and out
    assert enumerator_calls["G2Record"] == 0


def test_enumerate_emb_builds_one_record_per_pair(enumerator_calls, fano, nikulin):
    assert len(enumerate_emb(fano, nikulin)) == 8211
    assert enumerator_calls["G2Record"] == 8211


@pytest.mark.parametrize("mode", MODES)
def test_enumerate_rows_match_the_library(capsys, fano, nikulin, emb_records, mode):
    code, out, _ = run_cli(capsys, "enumerate", mode, "--format", "json")
    assert code == EXIT_OK
    rows = [
        (r["b2"], r["b3"], r["mode"], r["condition"], r["block1"], r["block2"])
        for r in json.loads(out)["rows"]
    ]
    if mode == "mirror":
        records = enumerate_mirror(nikulin)
    elif mode == "seq":
        records = enumerate_seq(fano, nikulin)
    elif mode == "large_rank":
        records = enumerate_large_rank(fano, nikulin)
    else:
        records = [r for r in emb_records if mode in ("emb", r.mode.lower())]
    assert rows == [
        (r.b2, r.b3, r.mode, r.certificate.condition, r.blocks[0].label, r.blocks[1].label)
        for r in records
    ]
    # the csv and the text table hold the same rows under one header line
    _, text, _ = run_cli(capsys, "enumerate", mode)
    _, out, _ = run_cli(capsys, "enumerate", mode, "--format", "csv")
    assert len(list(csv.DictReader(io.StringIO(out)))) == len(text.splitlines()) - 1 == len(rows)


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "nik.csv"
    bad.write_text("r,a,delta,source\n3,2,1,x\n")
    code, out, err = run_cli(capsys, "validate", "--nikulin", str(bad))
    assert code == EXIT_VALIDATION
    assert f"{bad}:2: no even 2-elementary lattice of signature (1, 2) has a=2, delta=1" in err


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (
            ["crosscheck", "--fano"],
            "id,b2,b3,minus_k3,source\n11.1,11,0,2,x\n",
            ":2: b2 must be at most 10, got 11",
        ),
        (["validate", "--nikulin"], "r,a,delta,source\u00a0\n2,0,0,x\n", ":1: expected header"),
        (["validate", "--nikulin"], 'r,a,delta,source\n"2",0,0,x\n', ":2: cells are not quoted"),
        (
            ["validate", "--nikulin"],
            "r,a,delta,source\n1,1,0,x\n",
            ":2: no even 2-elementary lattice of signature (1, 0) has a=1, delta=0",
        ),
    ],
    ids=["fano-rank-11", "nbsp-header", "quoted-cell", "no-such-class"],
)
def test_bad_catalog_line_exits_1(tmp_path, capsys, argv, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"g2sum: {bad}{message}")


def test_non_utf8_catalog_is_a_validation_failure(tmp_path, capsys):
    bad = tmp_path / "nik.csv"
    bad.write_bytes(b"r,a,delta,source\n2,0,0,U\xff\n")
    code, out, err = run_cli(capsys, "validate", "--nikulin", str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"g2sum: {bad}: catalog is not UTF-8 text")


def test_incomplete_catalog_with_an_unpaired_6_6_0_row_keeps_the_mirror_list(
    tmp_path, capsys, nikulin
):
    # (6,6,0) has the shape of the mirror partner of the excluded (14,6,0)
    # class, but no even 2-elementary lattice of signature (1, 5) has a = 6 and
    # delta = 0, so a catalog file holding it is refused.
    import g2sum.catalog

    packaged = (g2sum.catalog.default_data_dir() / "nikulin.csv").read_text()
    rows = [line for line in packaged.splitlines() if line.strip() != "#complete"]
    assert len(rows) < len(packaged.splitlines())
    user = tmp_path / "nik.csv"
    user.write_text("\n".join(rows + ["6,6,0,6*<-2>"]) + "\n")
    code, out, err = run_cli(capsys, "betti-list", "mirror", "--nikulin", str(user))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(
        f"g2sum: {user}:{len(rows) + 1}: no even 2-elementary lattice of signature (1, 5) "
        "has a=6, delta=0"
    )
    # A catalog built past the loader still leaves the pair out.
    extra = g2sum.catalog.NikulinCatalog(
        (*nikulin, g2sum.catalog.NikulinTriple(6, 6, 0)), complete=False
    )
    assert g2sum.catalog.mirror_pairs(extra) == g2sum.catalog.mirror_pairs(nikulin)


def test_complete_catalog_with_an_impossible_class_exits_1(tmp_path, capsys):
    # Swapping (1,1,1) for (1,1,0) keeps 75 distinct rows; (1,1,0) is no class.
    import g2sum.catalog

    packaged = (g2sum.catalog.default_data_dir() / "nikulin.csv").read_text()
    assert "\n1,1,1,<2>\n" in packaged
    user = tmp_path / "nik.csv"
    user.write_text(packaged.replace("\n1,1,1,<2>\n", "\n1,1,0,<2>\n"))
    code, out, err = run_cli(capsys, "validate", "--nikulin", str(user))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"g2sum: {user}:7: no even 2-elementary lattice of signature (1, 0)")


@pytest.mark.parametrize("command", ["validate", "crosscheck"])
def test_repeated_joyce_pair_exits_1(tmp_path, capsys, command):
    joyce = tmp_path / "joyce.csv"
    joyce.write_text("b2,b3\n1,5\n1,5\n")
    code, out, err = run_cli(capsys, command, "--joyce", str(joyce))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"g2sum: {joyce}:3: duplicate pair (1, 5)\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter has no int digit limit",
)
@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
def test_integer_cell_over_the_digit_limit_exits_1_without_traceback(tmp_path, optimize):
    limit = sys.get_int_max_str_digits()
    bad = tmp_path / "nik.csv"
    bad.write_text("r,a,delta,source\n" + "9" * (limit + 1) + ",0,0,x\n")
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "g2sum.cli", "validate", "--nikulin", str(bad)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stdout == ""
    assert proc.stderr == f"g2sum: {bad}:2: field 'r' has over {limit} digits\n"


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
    choices = "emb, emb_a, emb_b, emb_c, mirror, seq, large_rank"
    assert f"unknown mode 'bogus' (choose from {choices})" in capsys.readouterr().err


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
    # the script and python -m write the same bytes
    argv = ["enumerate", "emb", "--format", "csv"]
    script = subprocess.run([exe, *argv], capture_output=True, timeout=120)
    module = subprocess.run(
        [sys.executable, "-m", "g2sum.cli", *argv], capture_output=True, timeout=120
    )
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate"], EXIT_OK),
        (["validate", "--nikulin", "{bad}"], EXIT_VALIDATION),
        (["validate", "--nikulin", "{missing}"], EXIT_IO),
        (["no-such-command"], EXIT_IO),
    ],
    ids=["ok", "bad-row", "missing-catalog", "unknown-command"],
)
def test_module_entry_exit_codes(tmp_path, argv, code):
    bad = tmp_path / "bad.csv"
    bad.write_text("r,a,delta,source\n19,11,1,x\n")
    argv = [a.format(bad=bad, missing=tmp_path / "missing.csv") for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "g2sum.cli", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


# The process entry with an exit hook that reads whether the heap was frozen.
PROBE_RUN = """
import atexit, gc, sys
import g2sum.cli as cli

atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
cli.run()
"""


def test_process_entry_freezes_the_heap_and_runs_exit_hooks():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_RUN, "validate"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.split()[:3] == ["catalog", "rows", "status"]
    assert "frozen at exit: True" in proc.stderr


def test_console_script_enters_through_run():
    # A text match: tomllib is missing on Python 3.10.
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'(?m)^g2sum = "g2sum\.cli:run"$', pyproject)


def test_closed_stdout_is_io_error_without_traceback():
    # The text output far outgrows a pipe's buffer, so the child is still
    # writing when its reader goes away, as under `| head -1`.
    for optimize in ((), ("-O",)):
        with subprocess.Popen(
            [sys.executable, *optimize, "-m", "g2sum.cli", "enumerate", "emb"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            assert proc.stdout.readline().split()[:2] == ["b2", "b3"]
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_IO, optimize
        assert "Traceback" not in err
        assert "g2sum: cannot write output:" in err


@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "argv", [("validate",), ("betti-list", "emb"), ("table1", "--format", "json")], ids=" ".join
)
def test_closed_stdout_on_a_small_output_is_io_error_without_traceback(argv, optimize):
    # The output fits in stdout's buffer, so nothing reaches the pipe before
    # the final flush; the reader is gone before the child starts.  Unbuffered,
    # the first write would fail instead, so that mode is switched off.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *optimize, "-m", "g2sum.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_IO
    assert "g2sum: cannot write output:" in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize("argv", [("validate",), ("enumerate", "emb")], ids=" ".join)
def test_stdout_on_a_full_device_is_io_error_without_traceback(argv, optimize):
    # Every write to /dev/full fails with ENOSPC: a write error other than a
    # broken pipe is an I/O error too, not an internal one.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *optimize, "-m", "g2sum.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert proc.returncode == EXIT_IO
    assert f"g2sum: cannot write output: [Errno {errno.ENOSPC}] " in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert "Traceback" not in proc.stderr


BAD_NIKULIN = "r,a,delta,source\n19,11,1,x\n"


@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "argv, code, last_line",
    [
        (("validate",), EXIT_IO, "g2sum: cannot write output: stdout is closed"),
        (("--help",), EXIT_IO, "g2sum: cannot write output: stdout is closed"),
        (("enumerate", "-h"), EXIT_IO, "g2sum: cannot write output: stdout is closed"),
        # A bad catalog fails before any output is written.
        (("validate", "--nikulin", "{bad}"), EXIT_VALIDATION, "g2sum: {bad}:2: no even"),
    ],
    ids=["validate", "help", "command-help", "bad-catalog"],
)
def test_stdout_closed_at_start_is_io_error_without_traceback(
    tmp_path, argv, code, last_line, optimize
):
    # Descriptor 1 closed before exec leaves the child no sys.stdout at all.
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_NIKULIN)
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "g2sum.cli", *[a.format(bad=bad) for a in argv]],
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(last_line.format(bad=bad))
    assert "Traceback" not in proc.stderr


@contextlib.contextmanager
def unwritable_stderr(kind):
    """``subprocess.run`` keywords that give the child a stderr it cannot write."""
    if kind == "closed":
        yield {"preexec_fn": lambda: os.close(2)}
    elif kind == "broken-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            yield {"stderr": write_end}
        finally:
            os.close(write_end)
    else:
        with open("/dev/full", "w") as full:
            yield {"stderr": full}


@pytest.mark.parametrize("optimize", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "argv, code",
    [
        ("validate", EXIT_OK),
        ("enumerate emb --format json", EXIT_OK),
        ("bogus", EXIT_IO),
        ("validate --nikulin {missing}", EXIT_IO),
        ("validate --nikulin {bad}", EXIT_VALIDATION),
    ],
    ids=["validate", "enumerate-json", "usage-error", "missing-catalog", "bad-catalog"],
)
@pytest.mark.parametrize(
    "stderr",
    [
        "closed",
        "broken-pipe",
        pytest.param(
            "full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
        ),
    ],
)
def test_unwritable_stderr_changes_neither_stdout_nor_the_exit_code(
    tmp_path, stderr, argv, code, optimize
):
    # Closed, print(file=sys.stderr) would write to stdout; broken or full,
    # the bytes left in its buffer would fail the interpreter's final flush,
    # so stderr keeps its default buffer.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_NIKULIN)
    words = argv.format(bad=bad, missing=tmp_path / "missing.csv").split()
    with unwritable_stderr(stderr) as streams:
        proc = subprocess.run(
            [sys.executable, *optimize, "-m", "g2sum.cli", *words],
            stdout=subprocess.PIPE,
            env=env,
            timeout=120,
            **streams,
        )
    assert proc.returncode == code
    if argv in GOLDEN:
        assert GOLDEN[argv]["exit"] == code
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[argv]["sha256"]
    else:
        assert proc.stdout == b""


def _lowest_free_fd():
    fd = os.dup(0)
    os.close(fd)
    return fd


def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # In process, each call points its own closed pipe at devnull; the
    # descriptor it opened to do so must not outlive the call.
    before = _lowest_free_fd()
    for _ in range(2):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["enumerate", "emb"]) == EXIT_IO
            monkeypatch.undo()
    assert _lowest_free_fd() == before


def test_cli_start_imports_no_rational_arithmetic():
    probe = "import sys, g2sum.cli; print(*{'fractions', 'decimal', 'numbers'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# The package's source directory, put first on a probe child's path: under
# ``-S`` the child has no site-packages in which to find an installed g2sum.
PACKAGE_ROOT = str(pathlib.Path(g2sum.__file__).resolve().parents[1])


@functools.lru_cache(maxsize=None)
def modules_added_by(code: str) -> frozenset[str]:
    # Only what ``code`` itself adds counts, so a site hook that loads one of
    # the modules a test looks for before g2sum cannot fail the test.  The
    # child runs with and without ``-S``, and what either run adds counts:
    # without the site hook, nothing g2sum needs is loaded in advance.
    probe = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        f"{code}"
        "print(*sorted(set(sys.modules) - before), file=sys.__stdout__)"
    )
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    added = set()
    for flags in ((), ("-S",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        added.update(proc.stdout.split())
    return frozenset(added)


def modules_the_cli_import_adds() -> set[str]:
    # The child imports the CLI, then runs a command, asks for help and makes
    # a usage error, with its output kept in memory, so what parsing argv
    # loads counts too.
    return set(
        modules_added_by(
            "import g2sum.cli\n"
            "sys.stdout = sys.stderr = io.StringIO()\n"
            "for argv in (['validate'], ['--help'], ['enumerate', '--help'], ['enumerate']):\n"
            "    try:\n"
            "        g2sum.cli.main(argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
        )
    )


def g2sum_modules(modules: frozenset[str]) -> set[str]:
    return {m for m in modules if m == "g2sum" or m.startswith("g2sum.")}


def test_cli_run_imports_no_lattice_engine():
    # The matching conditions read the ambient's signature and rank as
    # literals; only ``crosscheck`` imports the engine, in its body.
    added = modules_the_cli_import_adds()
    assert "g2sum.cli" in added and "g2sum.lattice_core" not in added


def test_package_import_loads_no_submodule():
    # The package's names load on first access.
    assert g2sum_modules(modules_added_by("import g2sum\n")) == {"g2sum"}


def test_lattice_engine_imports_without_the_census_modules():
    added = modules_added_by("from g2sum import IntLattice\n")
    assert g2sum_modules(added) == {"g2sum", "g2sum.lattice_core", "g2sum._frozen"}


def test_cli_start_and_argv_parsing_import_no_argparse_gettext_or_locale():
    # argparse imports gettext, and building a parser imports locale.
    assert {"argparse", "gettext", "locale"} & modules_the_cli_import_adds() == set()


def test_cli_start_imports_no_dataclasses_inspect_or_logging():
    assert {"dataclasses", "inspect", "logging"} & modules_the_cli_import_adds() == set()


def test_cli_start_imports_no_json():
    # Only --format json needs the json package; it is imported there.
    added = modules_the_cli_import_adds()
    assert [m for m in added if m == "json" or m.startswith("json.")] == []


def test_cli_start_imports_no_csv():
    # The catalog reader splits its own cells and --format csv writes its
    # own bytes, so nothing needs the csv module.
    assert {"csv", "_csv"} & modules_the_cli_import_adds() == set()


# A wrong literal planted for the gluing ambient's signature, before the CLI
# binds it: only ``crosscheck`` compares it with the lattice engine.
PLANTED_AMBIENT_BUG = """
import sys
import g2sum.embedding as embedding

embedding._AMBIENT_SIG = (2, 17)

from g2sum.cli import main

sys.exit(main(sys.argv[1:]))
"""


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
        b.kind, b.label, b.b2_bar, b.b3_bar + 2, b.d, b.rank, b.l_bound, b.triple
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
from g2sum.building_blocks import KIND_FANO
from g2sum.cli import main
from g2sum.embedding import COND_B, INCONCLUSIVE, EmbeddingVerdict, MatchCertificate

real_matching_condition = enumerator.matching_condition


def cond_b_only(block1, block2):
    if block1.kind == block2.kind == KIND_FANO and block1.rank == block2.rank == 1:
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
        triple=b.triple,
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
        # A single-clause mode decides only its clause's pairs.
        (
            PLANTED_COND_A_BUG,
            ("betti-list", "emb_a"),
            r"(?m)^g2sum: EMB_A pair lost condition A: fano\(\S+\) x fano\(\S+\)$",
        ),
        (
            PLANTED_BLOCK_BUG,
            ("betti-list", "emb_b"),
            r"(?m)^g2sum: closed-form/glue disagreement in EMB_B for fano\(\S+\) x involution\(",
        ),
        (
            PLANTED_BLOCK_BUG,
            ("betti-list", "emb_c"),
            r"(?m)^g2sum: closed-form/glue disagreement in EMB_C for "
            r"involution\(\S+\) x involution\(",
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
        (
            PLANTED_AMBIENT_BUG,
            ("crosscheck",),
            r"(?m)^g2sum: the engine gives the ambient 2\*E8\(-1\) \+ 2\*U signature "
            r"\(2, 18\) and rank 20; the matching conditions read \(2, 17\) and 20$",
        ),
    ],
    ids=[
        "betti-list emb",
        "crosscheck",
        "block-bug betti-list mirror",
        "cond-a betti-list emb",
        "cond-a betti-list emb_a",
        "block-bug betti-list emb_b",
        "block-bug betti-list emb_c",
        "rank-bug betti-list emb",
        "rank-bug crosscheck",
        "ambient-bug crosscheck",
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
    assert proc.stdout == ""


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
    frozen = gc.get_freeze_count()  # CPython 3.12.1 starts with 375 frozen
    assert main(["betti-list", "mirror"]) == EXIT_OK
    assert gc.isenabled() is collector
    assert gc.get_freeze_count() == frozen  # only the process entry freezes
    assert seen == [False]
    assert len(capsys.readouterr().out.splitlines()) == 12


def test_main_restores_gc_after_a_failed_command(monkeypatch, capsys, collector):
    # Once the catalogs load, only an identity failure fails a command.
    import g2sum.cli as cli
    from g2sum.enumerator import IdentityError

    def planted(*_catalogs_and_spaces):
        raise IdentityError("planted identity failure")

    monkeypatch.setattr(cli, "_census", planted)
    assert main(["betti-list", "large_rank"]) == EXIT_VALIDATION
    assert gc.isenabled() is collector
    assert "g2sum: planted identity failure" in capsys.readouterr().err


# A catalog that loads never fails a command: a thin --nikulin file yields
# the pairs it admits, under a banner that marks it INCOMPLETE.
THIN_NIKULIN = {
    "header-only": "r,a,delta,source\n",
    "anchors-only": "r,a,delta,source\n17,1,1,2*E8(-1) + <2>\n18,0,0,U + 2*E8(-1)\n",
}
THIN_COMMANDS = [
    ("validate",),
    ("table1",),
    ("crosscheck",),
    *((command, mode) for command in ("enumerate", "betti-list") for mode in _MODE_SPACES),
]


@pytest.mark.parametrize("catalog", sorted(THIN_NIKULIN))
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", THIN_COMMANDS, ids=" ".join)
def test_thin_catalog_never_fails_a_command(tmp_path, capsys, catalog, fmt, argv):
    thin = tmp_path / "nik.csv"
    thin.write_text(THIN_NIKULIN[catalog])
    code, _, err = run_cli(capsys, *argv, "--nikulin", str(thin), "--format", fmt)
    assert code == EXIT_OK, err
    rows = THIN_NIKULIN[catalog].count("\n") - 1
    assert f"# data: nikulin {rows} rows (INCOMPLETE);" in err
