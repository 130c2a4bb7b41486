"""Command-line reports over the catalogs.

Subcommands:

* ``validate``          load and strictly check the catalogs;
* ``enumerate MODE``    full records for one mode (or ``emb`` for all
                        three numeric clauses);
* ``betti-list MODE``   the distinct (b2, b3) pairs for one mode;
* ``table1``            per-b2 summary of the numeric-clause enumeration:
                        the number of distinct b3 values and those values,
                        sorted, for b2 = 2..18;
* ``crosscheck``        run every internal identity: the fixed-curve
                        recomputation for all involution classes, and the
                        closed-form-vs-gluing identity and the rank
                        condition once per pair class of all six
                        pair-spaces, decided over one pool.

Every command reads the pair classes of the enumerator's census, deciding
only the pair-spaces it reports, so it checks the identities of exactly
those classes.  None builds a record: ``betti-list``, ``table1`` and
``crosscheck`` read the classes' weights, and ``enumerate`` renders the
classes' record order.

The argv grammar is ``g2sum [-h] COMMAND [ARG ...]``; before the command,
only ``-h``/``--help`` is an option.  After it, the options and the MODE
come in any order.  An option's value is the next word (``--format csv``)
or follows ``=`` in the same word (``--format=csv``), and a long option may
be cut to any unique prefix (``--form``; ``--f`` is ambiguous).  A word
that starts with ``-`` is read as an option, never as a value, unless it
is ``-``, a negative number, or holds a space and names no option.
``--`` ends the options; it is dropped next to the MODE and is an
unexpected word anywhere else.  Unexpected words, unknown options among
them, make one usage error once every other word is used.  ``-h`` or
``--help`` prints help to stdout and exits 0 where it is read (2 if
stdout cannot be written, as for any output); ``-h`` takes no inline
value.  Every word before ``--`` is read before any is used, so an
ambiguous prefix fails even after ``-h``.  Anything else is a usage
error: a ``usage:`` line and ``g2sum[ COMMAND]: error: ...`` on stderr,
exit 2.

Data rows go to stdout, diagnostics to stderr.  Exit status: 0 success,
1 bad catalog data or an identity failure, 2 a catalog that cannot be
read (``OSError``), any stdout that cannot be written (closed before the
output ends, or on a full device; help too), or a usage error.

A process enters through ``run``, which freezes the heap before exiting so
the shutdown sweep skips it; ``main`` is the entry for in-process callers.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace
from typing import NoReturn, Sequence

# The benchmark (perfbench/) reads the names marked below from this module:
# spans.install_cli patches them, clirun.CLI_SETUP times catalog loading.
from .building_blocks import euler_crosscheck  # patched by spans.install_cli
from .catalog import (
    EMPTY,
    FANO_FILENAME,  # read by clirun.CLI_SETUP
    NIKULIN_FILENAME,  # read by clirun.CLI_SETUP
    CatalogError,
    FanoCatalog,
    JoyceCatalog,
    NikulinCatalog,
    default_data_dir,  # read by clirun.CLI_SETUP
    fixed_locus,
    load_fano,  # patched by spans.install_cli, called by clirun.CLI_SETUP
    load_joyce,  # patched by spans.install_cli
    load_nikulin,  # patched by spans.install_cli, called by clirun.CLI_SETUP
)
from .enumerator import (
    EMB_A,
    EMB_B,
    EMB_C,
    LARGE_RANK,
    MIRROR,
    SEQ,
    IdentityError,
    _census,
    _record_order,
    compare_joyce,  # patched by spans.install_cli
    count_matched_pairs,  # patched by spans.install_cli
    distinct_betti,  # patched by spans.install_cli
    enumerate_emb,  # patched by spans.install_cli; no command calls it
    enumerate_large_rank,  # patched by spans.install_cli; no command calls it
    enumerate_mirror,  # patched by spans.install_cli; no command calls it
    enumerate_seq,  # patched by spans.install_cli; no command calls it
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

# Each mode's pair-spaces: ``emb`` is the three clauses together.
_MODE_SPACES = {
    "emb": (EMB_A, EMB_B, EMB_C),
    "emb_a": (EMB_A,),
    "emb_b": (EMB_B,),
    "emb_c": (EMB_C,),
    "mirror": (MIRROR,),
    "seq": (SEQ,),
    "large_rank": (LARGE_RANK,),
}


_COMMANDS_WITH_MODE = ("enumerate", "betti-list")
# In argparse's order, which an ambiguous prefix's message follows.
_OPTIONS = ("-h", "--help", "--nikulin", "--fano", "--joyce", "--format")
_TOP_USAGE = "usage: g2sum [-h] {validate,enumerate,betti-list,table1,crosscheck} ...\n"
_TOP_HELP = _TOP_USAGE + """
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
_MODE_HELP = f"""positional arguments:
  mode                  {"|".join(_MODE_SPACES)}

"""
_OPTIONS_HELP = """options:
  -h, --help            show this help message and exit
  --nikulin PATH        involution triple catalog
  --fano PATH           Fano family catalog
  --joyce PATH          comparison Betti-pair catalog
  --format {csv,json,text}
                        output format (default: text)
"""
# A word of this form is a value, never an option.  The pattern is compiled
# on first use: a well-formed command line never reaches it.
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _usage(command: str | None) -> str:
    if command is None:
        return _TOP_USAGE
    head = f"usage: g2sum {command} "
    lines = ["[-h] [--nikulin PATH] [--fano PATH] [--joyce PATH]", "[--format {csv,json,text}]"]
    if command in _COMMANDS_WITH_MODE:
        lines.append("mode")
    return head + ("\n" + " " * len(head)).join(lines) + "\n"


def _output_failed(exc: OSError) -> int:
    """Report that stdout cannot be written: its reader closed it, or its
    device is full.  The descriptor is pointed at devnull so the
    interpreter's final flush of the unwritten buffer cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    print(f"g2sum: cannot write output: {exc}", file=sys.stderr)
    return EXIT_IO


def _usage_error(command: str | None, message: str) -> NoReturn:
    prog = "g2sum" if command is None else "g2sum " + command
    try:
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    except OSError:
        pass  # as argparse did: a usage error that cannot be written is dropped
    raise SystemExit(2)


def _help(command: str | None, inline: str | None) -> NoReturn:
    if inline is not None:
        _usage_error(command, f"argument -h/--help: ignored explicit argument {inline!r}")
    if command is None:
        text = _TOP_HELP
    else:
        mode_help = _MODE_HELP if command in _COMMANDS_WITH_MODE else ""
        text = _usage(command) + "\n" + mode_help + _OPTIONS_HELP
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a write error surfaces here, not at interpreter exit
    except OSError as exc:
        raise SystemExit(_output_failed(exc))
    raise SystemExit(EXIT_OK)


def _read_option(
    word: str, options: tuple[str, ...], command: str | None
) -> tuple[str | None, str | None] | None:
    """``word`` read before any ``--``: None for a plain word, else
    ``(option, inline value or None)``, where the option is None if no
    option has that name.  A long option may be cut to a unique prefix."""
    if not word.startswith("-") or word == "-":
        return None
    name, eq, value = word.partition("=")
    if word in options:
        return word, None
    if eq and name in options:
        return name, value
    if word.startswith("--"):
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            _usage_error(command, f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif word.startswith("-h"):
        return "-h", word[2:]
    if re.match(_NEGATIVE_NUMBER, word) or " " in word:
        return None
    return None, None


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command line's fields, as ``_COMMANDS`` read them, by the grammar
    of the module docstring: a usage error exits 2, and help exits 0."""
    unknown = []
    for at, word in enumerate(argv):
        read = None if word == "--" else _read_option(word, _OPTIONS[:2], None)
        if read is None:
            break
        if read[0] is None:
            unknown.append(word)
        else:
            _help(None, read[1])
    else:
        at = len(argv)
    if argv[at:] in ([], ["--"]):
        _usage_error(None, "the following arguments are required: command")
    command, words = argv[at], argv[at + 1 :]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    fields = {"command": command, "nikulin": None, "fano": None, "joyce": None, "format": "text"}
    # Every word before ``--`` is read before any is used, so an ambiguous
    # prefix is an error even after ``-h``.
    cut = words.index("--") if "--" in words else len(words)
    reads = [_read_option(word, _OPTIONS, command) for word in words[:cut]]
    takes_mode = command in _COMMANDS_WITH_MODE
    i = 0
    while i < len(words):
        at, i = i, i + 1
        read = reads[at] if at < cut else None
        if read is None and takes_mode and "mode" not in fields and (at != cut or i < len(words)):
            # As in argparse, the mode word takes along a ``--`` right before or after it.
            if at == cut:
                at, i = i, i + 1
            fields["mode"] = _normalize_mode(words[at], command)
            i += i == cut
        elif read is None or read[0] is None:
            unknown.append(words[at])
        elif read[0] in _OPTIONS[:2]:
            _help(command, read[1])
        else:
            name, value = read
            if value is None:
                if i >= cut or reads[i] is not None:
                    _usage_error(command, f"argument {name}: expected one argument")
                value = words[i]
                i += 1
            if name == "--format" and value not in _FORMATS:
                choices = ", ".join(map(repr, sorted(_FORMATS)))
                _usage_error(command, f"argument --format: invalid choice: {value!r} (choose from {choices})")
            fields[name[2:]] = value
    if takes_mode and "mode" not in fields:
        _usage_error(command, "the following arguments are required: mode")
    if unknown:
        _usage_error(None, "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(**fields)


def _normalize_mode(raw: str, command: str) -> str:
    mode = raw.strip().lower().replace("-", "_")
    if mode not in _MODE_SPACES:
        _usage_error(
            command,
            f"argument mode: unknown mode {raw!r} (choose from {', '.join(_MODE_SPACES)})",
        )
    return mode


def _statuses(
    nikulin: NikulinCatalog, fano: FanoCatalog, joyce: JoyceCatalog | None
) -> list[tuple[str, int, str]]:
    """(catalog, rows, status) per catalog: the ``validate`` rows and the banner's source."""

    def word(complete: bool) -> str:
        return "complete" if complete else "incomplete"

    return [
        ("nikulin", len(nikulin), word(nikulin.complete)),
        ("fano", len(fano), "rank-1 " + word(fano.complete_rank_1)),
        ("joyce", 0, "absent") if joyce is None else ("joyce", len(joyce), word(joyce.complete)),
    ]


def _banner(statuses: list[tuple[str, int, str]]) -> None:
    notes = [
        f"{name} absent (comparison reports skipped)"
        if status == "absent"
        else f"{name} {rows} rows ({status.replace('incomplete', 'INCOMPLETE')})"
        for name, rows, status in statuses
    ]
    print("# data: " + "; ".join(notes), file=sys.stderr)


def _joined(items: Sequence) -> str:
    return " ".join(map(str, items))


def _json_scalar(value) -> str:
    if type(value) is str:
        from json.encoder import encode_basestring_ascii  # only json output loads json
        return encode_basestring_ascii(value)
    return "true" if value is True else "false" if value is False else str(value)


def _json_list(items: Sequence) -> str:
    """A tuple as ``json.dumps(..., indent=2)`` nests it, as a list, in a row."""
    if not items:
        return "[]"
    body = ",\n        ".join([_json_scalar(v) for v in items])
    return "[\n        " + body + "\n      ]"


def _plain(value) -> str:
    return _joined(value) if type(value) is tuple else str(value)


def _csv_cell(value) -> str:
    text = _plain(value)
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(value) -> str:
    return _json_list(value) if type(value) is tuple else _json_scalar(value)


# Per format: a cell's text, and what opens a line, separates two cells and closes a line.
_FORMATS = {
    "text": (_plain, "", "  ", "\n"),
    "csv": (_csv_cell, "", ",", "\r\n"),
    "json": (_json_cell, ",\n    {\n", ",\n", "\n    }"),
}


def _write_positions(
    positions: Sequence[tuple[Sequence[tuple] | dict[int, tuple], Sequence[int]]],
    fields: Sequence[str],
    fmt: str,
) -> None:
    """Write a dictionary-encoded table to stdout as text, csv or json.

    The positions cover ``fields`` left to right.  A position is a run of
    consecutive fields, given as ``(parts, index)``: ``parts`` maps small
    non-negative ints to the run's distinct cell tuples, and ``index`` holds
    one key of ``parts`` per line.  A sequence cell is a tuple.  Only the
    parts some line uses are rendered, each once, into its segment of a
    line; in text only they set the column widths.  Each line is the
    concatenation of its segments, and the lines are streamed to stdout
    rather than joined, so the rendered output is never held whole.  The
    bytes are those of ``csv.writer``, of ``json.dump({"rows": [...]},
    indent=2)`` plus a newline, and of a text table left-justified to each
    column's widest cell.
    """
    out = sys.stdout
    cell, begin, sep, end = _FORMATS[fmt]
    runs = []  # per position: its first field, the cells of each used part, its index
    start = 0
    for parts, index in positions:
        cells = {j: [cell(v) for v in parts[j]] for j in set(index)}
        runs.append((start, cells, index))
        start += len(next(iter(cells.values()), ()))
    # A text cell is padded to its column's width; a json cell follows its key.
    widths = [len(f) if fmt == "text" else 0 for f in fields]
    keys = [f"      {_json_scalar(f)}: " if fmt == "json" else "" for f in fields]
    if fmt == "text":
        for start, cells, _ in runs:
            for run in cells.values():
                for i, text in enumerate(run, start):
                    widths[i] = max(widths[i], len(text))

    def segment(start: int, run: list[str]) -> str:
        body = sep.join([keys[i] + text.ljust(widths[i]) for i, text in enumerate(run, start)])
        if fmt == "csv" and len(fields) == 1 and not body:
            body = '""'  # csv.writer quotes a row whose only field is empty
        return (sep if start else begin) + body + (end if start + len(run) == len(fields) else "")

    columns = []
    for start, cells, index in runs:
        segments = [""] * (max(cells, default=-1) + 1)
        for j, run in cells.items():
            segments[j] = segment(start, run)
        columns.append(map(segments.__getitem__, index))
    lines = map("".join, zip(*columns))
    if fmt != "json":
        out.write(segment(0, [cell(f) for f in fields]))
        out.writelines(lines)
        return
    first = next(lines, None)
    if first is None:
        out.write('{\n  "rows": []\n}\n')
        return
    out.write('{\n  "rows": [\n')
    out.write(first[len(",\n") :])  # no separator before the first record
    out.writelines(lines)
    out.write("\n  ]\n}\n")


def _write_rows(rows: Sequence[tuple], fields: Sequence[str], fmt: str) -> None:
    """Write ``rows``, tuples in ``fields`` order: one position whose index is the identity."""
    _write_positions([(rows, range(len(rows)))], fields, fmt)


_RECORD_FIELDS = tuple("b2 b3 mode n condition block1 block2 simply_connected flags".split())


def _cmd_validate(
    args: SimpleNamespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> None:
    _write_rows(_statuses(nikulin, fano, joyce), ("catalog", "rows", "status"), args.format)


def _cmd_enumerate(
    args: SimpleNamespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> None:
    classes = _census(fano, nikulin, _MODE_SPACES[args.mode])
    order, entries = _record_order(classes)
    # Every pair glues with n = 0 from simply connected blocks and keeps the
    # rank condition, so the n, simply_connected and flags cells are constant;
    # the last two ride with the second block's label.
    heads: dict[tuple, int] = {}
    head_of = [
        heads.setdefault((c.b2, c.b3, c.mode, 0, c.certificate.condition), len(heads))
        for c in classes
    ]
    positions = [
        (list(heads), [head_of[i] for i, _, _ in order]),
        ({e.order: (e.block.label,) for e in entries}, [p.order for _, p, _ in order]),
        ({e.order: (e.block.label, True, ()) for e in entries}, [q.order for _, _, q in order]),
    ]
    _write_positions(positions, _RECORD_FIELDS, args.format)


def _cmd_betti_list(
    args: SimpleNamespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> None:
    classes = _census(fano, nikulin, _MODE_SPACES[args.mode])
    _write_rows(distinct_betti(classes), ("b2", "b3"), args.format)


def _cmd_table1(
    args: SimpleNamespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> None:
    b3_values: dict[int, list[int]] = {}
    for b2, b3 in distinct_betti(_census(fano, nikulin, _MODE_SPACES["emb"])):
        b3_values.setdefault(b2, []).append(b3)
    rows = []
    for b2 in range(2, 19, 2):
        values = tuple(b3_values.get(b2, ()))
        rows.append((b2, len(values), values))
    _write_rows(rows, ("b2", "count", "b3_values"), args.format)


def _cmd_crosscheck(
    args: SimpleNamespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> None:
    involutions = [t for t in nikulin if fixed_locus(t).kind != EMPTY]
    for t in involutions:
        result = euler_crosscheck(t)
        if not result.ok:
            raise IdentityError(
                f"fixed-curve recomputation disagrees for {t.key}: "
                f"h11 {result.h11} vs b2 {result.b2_bar}, "
                f"h12 {result.h12} vs b3/2 {result.b3_bar // 2}, "
                f"fixed-curve Euler sum {result.euler_sum}"
            )
    rows = [("euler_crosscheck", len(involutions), "OK")]

    emb_spaces = _MODE_SPACES["emb"]
    every = _census(fano, nikulin, (*emb_spaces, MIRROR, SEQ, LARGE_RANK))
    emb = [c for c in every if c.mode in emb_spaces]
    rows.append(("closed_vs_glue", sum(c.weight for c in every), "OK"))

    counts = count_matched_pairs(emb)
    rows.append(
        (
            "pair_totals",
            counts.unordered_with_self,
            f"a={counts.clause_a} b={counts.clause_b} c={counts.clause_c} "
            f"diagonal={counts.diagonal} ordered={counts.ordered} "
            f"no_self={counts.unordered_no_self}",
        )
    )
    rows.append(
        (
            "distinct_betti",
            len(distinct_betti(every)),
            f"emb={len(distinct_betti(emb))}",
        )
    )
    comparison = compare_joyce(emb, joyce)
    if comparison is None:
        rows.append(("joyce_comparison", 0, "NOT_AVAILABLE"))
    else:
        rows.append(
            (
                "joyce_comparison",
                len(joyce),
                f"overlap={comparison.overlap_count} new={comparison.new_count} "
                f"mod4_violations={comparison.mod4_violations}",
            )
        )

    _write_rows(rows, ("check", "items", "status"), args.format)


_COMMANDS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "betti-list": _cmd_betti_list,
    "table1": _cmd_table1,
    "crosscheck": _cmd_crosscheck,
}


# worker.py calls main, clirun.py runs this module; spans.install_cli patches main.
def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        nikulin = load_nikulin(args.nikulin)
        fano = load_fano(args.fano)
        joyce = load_joyce(args.joyce)
    except OSError as exc:
        print(f"g2sum: cannot read catalog: {exc}", file=sys.stderr)
        return EXIT_IO
    except CatalogError as exc:
        print(f"g2sum: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _banner(_statuses(nikulin, fano, joyce))
    # A command's objects die by reference count; the cyclic collector would
    # only rescan them, so it stays off until the command ends and is then
    # left as the caller had it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _COMMANDS[args.command](args, nikulin, fano, joyce)
        sys.stdout.flush()  # a write error surfaces here, not at interpreter exit
        return EXIT_OK
    except IdentityError as exc:
        print(f"g2sum: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # The catalogs are loaded, so a command does no other I/O.
        return _output_failed(exc)
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The process entry: run ``main`` on ``sys.argv`` and exit with its code."""
    code = main()
    # The command has ended and the process exits next, so nothing is left for
    # the collector to reclaim: frozen, the heap is skipped by the shutdown sweep.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
