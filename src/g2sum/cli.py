"""Command-line reports over the catalogs.

Subcommands:

* ``validate``          load and strictly check the catalogs;
* ``enumerate MODE``    full records for one mode (or ``emb`` for all
                        three numeric clauses);
* ``betti-list MODE``   the distinct (b2, b3) pairs for one mode;
* ``table1``            per-b2 summary of the numeric-clause enumeration:
                        pair count and sorted b3 values for b2 = 2..18;
* ``crosscheck``        run every internal identity: the fixed-curve
                        recomputation for all involution classes and the
                        closed-form-vs-gluing identity for all records.

Data rows go to stdout, diagnostics to stderr.  Exit status: 0 success,
1 bad catalog data or an identity failure, 2 a catalog that cannot be
read (``OSError``) or a usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

# The benchmark (perfbench/) reads the names marked below from this module:
# spans.install_cli patches them, clirun.CLI_SETUP times catalog loading.
from .building_blocks import euler_crosscheck  # patched by spans.install_cli
from .catalog import (
    FANO_FILENAME,  # read by clirun.CLI_SETUP
    NIKULIN_FILENAME,  # read by clirun.CLI_SETUP
    CatalogError,
    FanoCatalog,
    JoyceCatalog,
    NikulinCatalog,
    default_data_dir,  # read by clirun.CLI_SETUP
    load_fano,  # patched by spans.install_cli, called by clirun.CLI_SETUP
    load_joyce,  # patched by spans.install_cli
    load_nikulin,  # patched by spans.install_cli, called by clirun.CLI_SETUP
)
from .enumerator import (
    EMB_A,
    EMB_B,
    EMB_C,
    G2Record,
    IdentityError,
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


def _banner(
    nikulin: NikulinCatalog, fano: FanoCatalog, joyce: JoyceCatalog | None
) -> None:
    nik_status = "complete" if nikulin.complete else "INCOMPLETE"
    fan_status = "rank-1 complete" if fano.complete_rank_1 else "rank-1 INCOMPLETE"
    if joyce is None:
        joyce_note = "joyce absent (comparison reports skipped)"
    else:
        joyce_note = f"joyce {len(joyce)} rows ({'complete' if joyce.complete else 'INCOMPLETE'})"
    print(
        f"# data: nikulin {len(nikulin)} rows ({nik_status}); "
        f"fano {len(fano)} rows ({fan_status}); {joyce_note}",
        file=sys.stderr,
    )


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
    return [
        (
            r.b2,
            r.b3,
            r.mode,
            r.n,
            r.certificate.condition,
            r.blocks[0].label,
            r.blocks[1].label,
            r.simply_connected,
            r.flags,
        )
        for r in records
    ]


def _mode_records(
    mode: str, nikulin: NikulinCatalog, fano: FanoCatalog
) -> list[G2Record]:
    if mode == "mirror":
        return enumerate_mirror(nikulin)
    if mode == "seq":
        return enumerate_seq(fano, nikulin)
    if mode == "large_rank":
        return enumerate_large_rank(fano, nikulin)
    records = enumerate_emb(fano, nikulin)
    if mode == "emb":
        return records
    wanted = {"emb_a": EMB_A, "emb_b": EMB_B, "emb_c": EMB_C}[mode]
    return [r for r in records if r.mode == wanted]


def _cmd_validate(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    rows = [
        ("nikulin", len(nikulin), "complete" if nikulin.complete else "incomplete"),
        ("fano", len(fano), "rank-1 complete" if fano.complete_rank_1 else "rank-1 incomplete"),
        (
            "joyce",
            0 if joyce is None else len(joyce),
            "absent" if joyce is None else ("complete" if joyce.complete else "incomplete"),
        ),
    ]
    _write_rows(rows, ("catalog", "rows", "status"), args.format)
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
    records = _mode_records(args.mode, nikulin, fano)
    _write_rows(distinct_betti(records), ("b2", "b3"), args.format)
    return EXIT_OK


def _cmd_table1(
    args: argparse.Namespace,
    nikulin: NikulinCatalog,
    fano: FanoCatalog,
    joyce: JoyceCatalog | None,
) -> int:
    records = enumerate_emb(fano, nikulin)
    rows = []
    for b2 in range(2, 19, 2):
        values = tuple(sorted({r.b3 for r in records if r.b2 == b2}))
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
        if t.key == (10, 10, 0):
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

    emb_records = enumerate_emb(fano, nikulin)
    all_records = (
        list(emb_records)
        + enumerate_mirror(nikulin)
        + enumerate_seq(fano, nikulin)
        + enumerate_large_rank(fano, nikulin)
    )
    rows.append(("closed_vs_glue", len(all_records), "OK"))

    counts = count_matched_pairs(emb_records)
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
            len(distinct_betti(all_records)),
            f"emb={len(distinct_betti(emb_records))}",
        )
    )
    comparison = compare_joyce(emb_records, joyce)
    if comparison is None:
        rows.append(("joyce_comparison", 0, "NOT_AVAILABLE"))
    else:
        rows.append(
            (
                "joyce_comparison",
                len(joyce) if joyce else 0,
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
    _banner(nikulin, fano, joyce)
    try:
        return _COMMANDS[args.command](args, nikulin, fano, joyce)
    except (CatalogError, IdentityError) as exc:
        print(f"g2sum: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
