"""The command line's argv grammar: the hand-written parser against argparse.

``_build_parser`` below is the argparse parser the CLI used to build, kept
unchanged as the reference.  The parser in ``g2sum.cli`` must read every
argv the way it did: the same fields, a usage error (exit 2), or help
(exit 0) with the same bytes on stdout.
"""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2sum.cli import _MODE_SPACES, _parse_args, main


# --- the reference: the CLI's argparse parser, as it was -----------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nikulin", metavar="PATH", help="involution triple catalog")
    common.add_argument("--fano", metavar="PATH", help="Fano family catalog")
    common.add_argument("--joyce", metavar="PATH", help="comparison Betti-pair catalog")
    common.add_argument(
        "--format",
        choices=("csv", "json", "text"),
        default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="g2sum",
        description="Betti-number enumeration for twisted-connected-sum 7-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check catalog invariants")
    p_enum = sub.add_parser("enumerate", parents=[common], help="emit full records")
    p_enum.add_argument("mode", type=_normalize_mode, help="|".join(_MODE_SPACES))
    p_list = sub.add_parser(
        "betti-list", parents=[common], help="emit distinct (b2, b3) pairs"
    )
    p_list.add_argument("mode", type=_normalize_mode, help="|".join(_MODE_SPACES))
    sub.add_parser("table1", parents=[common], help="per-b2 summary of emb records")
    sub.add_parser("crosscheck", parents=[common], help="run all internal identities")
    return parser


def _normalize_mode(raw: str) -> str:
    mode = raw.strip().lower().replace("-", "_")
    if mode not in _MODE_SPACES:
        raise argparse.ArgumentTypeError(
            f"unknown mode {raw!r} (choose from {', '.join(_MODE_SPACES)})"
        )
    return mode


def reference(argv):
    # argparse wraps help to the terminal width; the pinned bytes are 80 columns'.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return _build_parser().parse_args(argv)


def outcome(parse, argv):
    """What a parser makes of ``argv``: its fields, or its exit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            fields = vars(parse(list(argv)))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    return "fields", fields


def agreed(argv):
    """The outcome both parsers give for ``argv``, stderr included."""
    ours, theirs = outcome(_parse_args, argv), outcome(reference, argv)
    assert ours == theirs, argv
    return ours


# --- the alphabet of the differential test ---------------------------------

COMMANDS = ["validate", "enumerate", "betti-list", "table1", "crosscheck", "nosuch"]
MODES = ["emb", "EMB", "Emb-A", "emb_b", "EMB-C", "mirror", "Seq", "large-rank", "LARGE_RANK", "bogus"]
VALUES = ["x.csv", "", "-", "-5", "-x", "a b", "csv", "json", "text"]
# Each option in full and as a unique prefix, and the prefix --f that is ambiguous.
OPTIONS = ["--nikulin", "--nik", "--fano", "--fa", "--joyce", "--j", "--format", "--form", "--f"]
MARKS = ["-h", "--help", "--"]

words = st.one_of(
    st.sampled_from(COMMANDS + MODES + VALUES + OPTIONS + MARKS),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
)
argvs = st.one_of(
    st.lists(words, max_size=6),
    # a command, then options, values and modes in any order
    st.builds(
        lambda head, command, tail: [*head, command, *tail],
        st.lists(words, max_size=1),
        st.sampled_from(COMMANDS),
        st.lists(words, max_size=6),
    ),
    # mostly well formed: a command, then options with their values and modes
    st.builds(
        lambda command, chunks: [command, *(word for chunk in chunks for word in chunk)],
        st.sampled_from(COMMANDS),
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
                st.tuples(st.sampled_from(MODES + MARKS)),
            ),
            max_size=4,
        ),
    ),
)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the reference language is argparse's on CPython 3.11; other releases read some argv differently",
)
@settings(max_examples=3000, deadline=None)
@given(argvs)
@example([])
@example(["enumerate", "--", "emb"])
@example(["enumerate", "emb", "--"])
@example(["enumerate", "emb", "--format", "csv", "--"])
@example(["validate", "--"])
@example(["validate", "-h", "--f"])
@example(["--nik", "-h", "validate"])
@example(["--format=a b", "-h"])
@example(["betti-list", "--format", "-5", "emb"])
@example(["betti-list", "--nikulin", "-5", "-x", "emb"])
def test_the_parser_reads_argv_as_argparse_did(argv):
    agreed(argv)


# --- the language, pinned -----------------------------------------------

TOP_HELP = """\
usage: g2sum [-h] {validate,enumerate,betti-list,table1,crosscheck} ...

Betti-number enumeration for twisted-connected-sum 7-manifolds

positional arguments:
  {validate,enumerate,betti-list,table1,crosscheck}
    validate            check catalog invariants
    enumerate           emit full records
    betti-list          emit distinct (b2, b3) pairs
    table1              per-b2 summary of emb records
    crosscheck          run all internal identities

options:
  -h, --help            show this help message and exit
"""

OPTIONS_HELP = """\
options:
  -h, --help            show this help message and exit
  --nikulin PATH        involution triple catalog
  --fano PATH           Fano family catalog
  --joyce PATH          comparison Betti-pair catalog
  --format {csv,json,text}
                        output format (default: text)
"""

MODE_HELP = """\
positional arguments:
  mode                  emb|emb_a|emb_b|emb_c|mirror|seq|large_rank

"""

HELP = {
    (): TOP_HELP,
    ("validate",): """\
usage: g2sum validate [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]
                      [--format {csv,json,text}]

""" + OPTIONS_HELP,
    ("enumerate",): """\
usage: g2sum enumerate [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]
                       [--format {csv,json,text}]
                       mode

""" + MODE_HELP + OPTIONS_HELP,
    ("betti-list",): """\
usage: g2sum betti-list [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]
                        [--format {csv,json,text}]
                        mode

""" + MODE_HELP + OPTIONS_HELP,
    ("table1",): """\
usage: g2sum table1 [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]
                    [--format {csv,json,text}]

""" + OPTIONS_HELP,
    ("crosscheck",): """\
usage: g2sum crosscheck [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]
                        [--format {csv,json,text}]

""" + OPTIONS_HELP,
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "g2sum")
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_is_pinned_and_exits_0(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out == HELP[command]
    assert err == ""


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_does_not_wrap_to_the_terminal(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit):
        main(["enumerate", "--help"])
    assert capsys.readouterr().out == HELP[("enumerate",)]


@pytest.mark.parametrize(
    "argv, first, last",
    [
        (
            [],
            "usage: g2sum [-h] {validate,enumerate,betti-list,table1,crosscheck} ...",
            "g2sum: error: the following arguments are required: command",
        ),
        (
            ["enumerate"],
            "usage: g2sum enumerate [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]",
            "g2sum enumerate: error: the following arguments are required: mode",
        ),
        (
            ["validate", "--format", "xml"],
            "usage: g2sum validate [-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]",
            "g2sum validate: error: argument --format: invalid choice: 'xml' "
            "(choose from 'csv', 'json', 'text')",
        ),
    ],
    ids=["no-command", "enumerate", "validate-format-xml"],
)
def test_usage_errors_are_pinned_and_exit_2(capsys, argv, first, last):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == first
    assert lines[-1] == last


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["validate"], {}),
        (["table1", "--form=json"], {"format": "json"}),
        (
            ["enumerate", "--nik", "a b", "Large-Rank", "--j=", "--format", "csv"],
            {"nikulin": "a b", "joyce": "", "format": "csv", "mode": "large_rank"},
        ),
        (["betti-list", "--fano", "-5", "--", "emb-c"], {"fano": "-5", "mode": "emb_c"}),
    ],
)
def test_fields_of_well_formed_argv(argv, fields):
    want = {"command": argv[0], "nikulin": None, "fano": None, "joyce": None, "format": "text"}
    assert vars(_parse_args(argv)) == {**want, **fields}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"]], ids=" ".join)
def test_help_that_cannot_be_written_is_dropped_without_traceback(argv):
    # Unbuffered, the write itself fails; argparse dropped the error and exited 0.
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "g2sum.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    assert proc.returncode == 0
    assert proc.stderr == ""


# --- where the parser deliberately reads argv otherwise than argparse ------


def test_short_options_do_not_bundle():
    # argparse read "-hh" (and "-h=h") as -h given twice, so as help; here -h
    # takes no inline value, so both are usage errors, as "-hx" always was.
    for argv in (["-hh"], ["validate", "-hh"], ["validate", "-h=h"], ["validate", "-hx"]):
        assert outcome(_parse_args, argv)[:2] == ("exit", 2)


def test_an_inline_double_dash_is_a_value():
    # argparse dropped a "--" value given inline and left an empty list as
    # the path; here it is the path "--", as any other inline value.
    assert _parse_args(["validate", "--nikulin=--"]).nikulin == "--"
