"""Command-line reports over the catalogs.

Subcommands:

* ``validate``          load and strictly check the catalogs;
* ``enumerate MODE``    full records for one mode (or ``emb`` for all
                        three numeric clauses);
* ``betti-list MODE``   the distinct (b2, b3) pairs for one mode;
* ``table1``            per-b2 summary of the numeric-clause enumeration:
                        pair count and sorted b3 values for b2 = 2..18;
* ``crosscheck``        run every internal identity: the fixed-curve
                        recomputation for all involution classes, and the
                        closed-form-vs-gluing identity and the rank
                        condition once per pair class of all four
                        pair-spaces, decided over one pool.

``betti-list``, ``table1`` and ``crosscheck`` read the pair classes of the
enumerator's census and their weights; only ``enumerate`` builds records.

Data rows go to stdout, diagnostics to stderr.  Exit status: 0 success,
1 bad catalog data or an identity failure, 2 a catalog that cannot be
read (``OSError``), a stdout closed before the output ends, or a usage
error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

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
    G2Record,
    IdentityError,
    PairClass,
    _census,
    compare_joyce,  # patched by spans.install_cli
    count_matched_pairs,  # patched by spans.install_cli
    distinct_betti,  # patched by spans.install_cli
    enumerate_emb,  # patched by spans.install_cli
    enumerate_large_rank,  # patched by spans.install_cli
    enumerate_mirror,  # patched by spans.install_cli
    enumerate_seq,  # patched by spans.install_cli
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_MODE_CHOICES = ("emb", "emb_a", "emb_b", "emb_c", "mirror", "seq", "large_rank")


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
    p_enum.add_argument("mode", type=_normalize_mode, help="|".join(_MODE_CHOICES))
    p_list = sub.add_parser(
        "betti-list", parents=[common], help="emit distinct (b2, b3) pairs"
    )
    p_list.add_argument("mode", type=_normalize_mode, help="|".join(_MODE_CHOICES))
    sub.add_parser("table1", parents=[common], help="per-b2 summary of emb records")
    sub.add_parser("crosscheck", parents=[common], help="run all internal identities")
    return parser


def _normalize_mode(raw: str) -> str:
    mode = raw.strip().lower().replace("-", "_")
    if mode not in _MODE_CHOICES:
        raise argparse.ArgumentTypeError(
            f"unknown mode {raw!r} (choose from {', '.join(_MODE_CHOICES)})"
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


_JSON_SCALAR = {
    bool: {True: "true", False: "false"}.__getitem__,
    int: str,
    str: encode_basestring_ascii,
}


def _json_list(items: Sequence) -> str:
    """A tuple as ``json.dumps(..., indent=2)`` nests it, as a list, in a row."""
    if not items:
        return "[]"
    body = ",\n        ".join([_JSON_SCALAR[type(v)](v) for v in items])
    return "[\n        " + body + "\n      ]"


_PLAIN = {bool: str, int: str, str: None, tuple: _joined}
# Per format, the converter for a column by the type of its cells; None
# keeps the cells as they are (``%s`` prints an int as json does).
_CONVERTERS = {
    "text": _PLAIN,
    "csv": _PLAIN,
    "json": {**_JSON_SCALAR, int: None, tuple: _json_list},
}


def _write_rows(rows: Sequence[tuple], fields: Sequence[str], fmt: str) -> None:
    """Write ``rows``, tuples in ``fields`` order, to stdout as text, csv or json.

    The cells of one column share a type; a sequence cell is a tuple whose
    items share a type.  Each column is converted as a whole, every row is
    filled into one template, and the lines are streamed to stdout rather
    than joined, so the rendered output is never held whole.  The bytes are
    those of ``csv.DictWriter``, of ``json.dump({"rows": [...]}, indent=2)``
    plus a newline, and of a text table left-justified to each column's
    widest cell.
    """
    out = sys.stdout
    converters = _CONVERTERS[fmt]
    columns = []
    for column in zip(*rows) if rows else [()] * len(fields):
        convert = converters[type(column[0])] if column else None
        if convert is not None:
            # Each distinct value is converted once; equal cells share its string.
            encoded = {cell: convert(cell) for cell in set(column)}
            column = list(map(encoded.__getitem__, column))
        columns.append(column)
    lines = zip(*columns)
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(fields)
        writer.writerows(lines)
    elif fmt == "json":
        template = (
            "    {\n"
            + ",\n".join(
                f"      {encode_basestring_ascii(f).replace('%', '%%')}: %s" for f in fields
            )
            + "\n    }"
        )
        first = next(lines, None)
        if first is None:
            out.write('{\n  "rows": []\n}\n')
            return
        out.write('{\n  "rows": [\n' + template % first)
        out.writelines(map((",\n" + template).__mod__, lines))
        out.write("\n  ]\n}\n")
    else:
        widths = [max([len(f), *map(len, c)]) for f, c in zip(fields, columns)]
        template = "  ".join(f"%-{w}s" for w in widths) + "\n"
        out.write(template % tuple(fields))
        out.writelines(map(template.__mod__, lines))


def _record_rows(records: Sequence[G2Record]) -> list[tuple]:
    # Every pair glues with n = 0 from simply connected blocks and keeps the
    # rank condition, so the n, simply_connected and flags columns are constant.
    return [
        (
            r.b2,
            r.b3,
            r.mode,
            0,
            r.certificate.condition,
            r.blocks[0].label,
            r.blocks[1].label,
            True,
            (),
        )
        for r in records
    ]


_SPACES = {"mirror": MIRROR, "seq": SEQ, "large_rank": LARGE_RANK}
_EMB_CLAUSES = {"emb_a": EMB_A, "emb_b": EMB_B, "emb_c": EMB_C}


def _of_clause(mode: str, rows: list) -> list:
    """The ``rows`` of the emb clause that ``mode`` names; all of them for any other mode."""
    clause = _EMB_CLAUSES.get(mode)
    return rows if clause is None else [r for r in rows if r.mode == clause]


def _mode_records(
    mode: str, nikulin: NikulinCatalog, fano: FanoCatalog
) -> list[G2Record]:
    if mode == "mirror":
        return enumerate_mirror(nikulin)
    if mode == "seq":
        return enumerate_seq(fano, nikulin)
    if mode == "large_rank":
        return enumerate_large_rank(fano, nikulin)
    return _of_clause(mode, enumerate_emb(fano, nikulin))


def _mode_classes(
    mode: str, nikulin: NikulinCatalog, fano: FanoCatalog
) -> list[PairClass]:
    space = _SPACES.get(mode, "emb")
    # The mirror pairs join involution blocks only, so no Fano block is built for them.
    census = _census(() if space == MIRROR else fano, nikulin, (space,))
    return _of_clause(mode, census[space])


def _cmd_validate(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    _write_rows(_statuses(nikulin, fano, joyce), ("catalog", "rows", "status"), args.format)
    return EXIT_OK


def _cmd_enumerate(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    records = _mode_records(args.mode, nikulin, fano)
    fields = (
        "b2",
        "b3",
        "mode",
        "n",
        "condition",
        "block1",
        "block2",
        "simply_connected",
        "flags",
    )
    _write_rows(_record_rows(records), fields, args.format)
    return EXIT_OK


def _cmd_betti_list(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    classes = _mode_classes(args.mode, nikulin, fano)
    _write_rows(distinct_betti(classes), ("b2", "b3"), args.format)
    return EXIT_OK


def _cmd_table1(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    b3_values: dict[int, list[int]] = {}
    for b2, b3 in distinct_betti(_census(fano, nikulin, ("emb",))["emb"]):
        b3_values.setdefault(b2, []).append(b3)
    rows = []
    for b2 in range(2, 19, 2):
        values = tuple(b3_values.get(b2, ()))
        rows.append((b2, len(values), values))
    _write_rows(rows, ("b2", "count", "b3_values"), args.format)
    return EXIT_OK


def _cmd_crosscheck(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    failures: list[str] = []
    checked = 0
    for t in nikulin:
        if fixed_locus(t).kind == EMPTY:
            continue
        checked += 1
        result = euler_crosscheck(t)
        if not result.ok:
            failures.append(
                f"fixed-curve recomputation disagrees for {t.key}: "
                f"h11 {result.h11} vs b2 {result.b2_bar}, "
                f"h12 {result.h12} vs b3/2 {result.b3_bar // 2}, "
                f"fixed-curve Euler sum {result.euler_sum}"
            )
    rows = [("euler_crosscheck", checked, "FAIL" if failures else "OK")]

    census = _census(fano, nikulin, ("emb", MIRROR, SEQ, LARGE_RANK))
    emb = census["emb"]
    every = [c for classes in census.values() for c in classes]
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
    for failure in failures:
        print(f"crosscheck failure: {failure}", file=sys.stderr)
    return EXIT_VALIDATION if failures else EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "betti-list": _cmd_betti_list,
    "table1": _cmd_table1,
    "crosscheck": _cmd_crosscheck,
}


# worker.py calls main, clirun.py runs this module; spans.install_cli patches main.
def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
        return _COMMANDS[args.command](args, nikulin, fano, joyce)
    except (CatalogError, IdentityError) as exc:
        print(f"g2sum: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError as exc:
        # The reader closed stdout.  Point the descriptor at devnull so the
        # interpreter's final flush of the unwritten buffer cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"g2sum: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
