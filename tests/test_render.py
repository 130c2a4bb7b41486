"""The CLI's one render path against the standard library, byte for byte.

``cli._write_rows`` converts column by column and streams through
templates.  Here each format is compared with a reference built the
plain way: ``json.dumps`` of the row dicts, ``csv.DictWriter``, and the
text table that left-justifies every cell with ``str.ljust``.
"""

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sum.cli import _write_rows, main

# ASCII and non-ASCII text, with the characters csv and json must escape.
CELL_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(',"\\\n\r\t %'), st.characters(codec="utf-8")),
    max_size=12,
)
COLUMN_CELLS = [
    st.integers(-(10**12), 10**12),
    st.booleans(),
    CELL_TEXT,
    st.lists(st.integers(-999, 999), max_size=4).map(tuple),
    st.lists(CELL_TEXT, max_size=4).map(tuple),
]


@st.composite
def tables(draw):
    fields = draw(st.lists(CELL_TEXT, min_size=1, max_size=5, unique=True))
    cells = [draw(st.sampled_from(COLUMN_CELLS)) for _ in fields]
    rows = draw(st.lists(st.tuples(*cells), max_size=8))
    return fields, rows


def render(rows, fields, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        _write_rows(rows, fields, fmt)
    return out.getvalue()


def flat(rows):
    return [
        [" ".join(map(str, v)) if isinstance(v, tuple) else v for v in row] for row in rows
    ]


def reference_json(rows, fields):
    return json.dumps({"rows": [dict(zip(fields, row)) for row in rows]}, indent=2) + "\n"


def reference_csv(rows, fields):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(fields))
    writer.writeheader()
    writer.writerows(dict(zip(fields, row)) for row in flat(rows))
    return out.getvalue()


def reference_text(rows, fields):
    cells = [[str(v) for v in row] for row in flat(rows)]
    widths = [max([len(f)] + [len(row[i]) for row in cells]) for i, f in enumerate(fields)]
    lines = [fields] + cells
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n" for line in lines
    )


REFERENCES = {"json": reference_json, "csv": reference_csv, "text": reference_text}


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(sorted(REFERENCES)))
def test_write_rows_matches_reference(table, fmt):
    fields, rows = table
    assert render(rows, fields, fmt) == REFERENCES[fmt](rows, fields)


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
def test_write_rows_zero_rows(fmt):
    fields = ("b2", "b3_values", "status")
    assert render([], fields, fmt) == REFERENCES[fmt]([], fields)


def test_empty_text_table_prints_its_header():
    assert render([], ("b2", "b3"), "text") == "b2  b3\n"


# SHA-256 of stdout, recorded before the renderer was rewritten.  The
# benchmark's golden file covers these two commands in text only.
PINNED = {
    "table1 --format json": "ffe78c552c667279b0ce486a34445d4bb6a39ae1d74d12e672dd51bfeea2a010",
    "table1 --format csv": "c3505200c1e5a6ce99c66dd3e1bbd620467e21623c037fcd46efa80b81fd1a3c",
    "crosscheck --format json": "60755e467274f0c594e62eceb5d7f9f37cf6d25f4871cc7745abc4f9051d95bb",
    "crosscheck --format csv": "37217ec84ca39e0089b3a928ea0019a8c7e40e09f7e59ce9fdb1395f1fc172fe",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_report_bytes_pinned(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == PINNED[command]
