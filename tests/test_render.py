"""The CLI's one render path against the standard library, byte for byte.

``cli._write_positions`` renders each distinct part of a dictionary-encoded
table once and streams the lines; ``cli._write_rows`` passes it plain rows.
Here each format is compared with a reference built the plain way: ``json.dumps`` of the row dicts, ``csv.DictWriter``, and the
text table that left-justifies every cell with ``str.ljust``.
"""

import csv
import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sum.cli import _write_positions, _write_rows, main

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


@pytest.mark.parametrize("field", ["x", ""])
@pytest.mark.parametrize("cell", ["", ()])
def test_csv_quotes_a_row_whose_only_field_is_empty(field, cell):
    rows = [(cell,), ("a",)]
    assert render(rows, (field,), "csv") == reference_csv(rows, (field,))
    assert render(rows, (field,), "csv").splitlines()[1] == '""'


# A part no line uses, wider than any cell: it must not reach a text column.
UNUSED_WIDE = "w" * 40


@st.composite
def encoded_tables(draw):
    """A table, its rows and its split into positions over shared parts.

    Each position is a run of consecutive fields; a line picks one of the
    run's candidate parts, so lines share parts, and the parts list also
    holds entries no line uses, in a shuffled order.
    """
    fields, _ = draw(tables())
    cuts = sorted(draw(st.sets(st.integers(1, len(fields) - 1))) if len(fields) > 1 else [])
    bounds = [0, *cuts, len(fields)]
    strategies = [draw(st.sampled_from(COLUMN_CELLS)) for _ in fields]
    count = draw(st.integers(0, 8))
    positions, picks = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        cells = st.tuples(*strategies[lo:hi])
        candidates = draw(st.lists(cells, min_size=1, max_size=4, unique=True))
        unused = draw(st.lists(cells, max_size=2)) + [(UNUSED_WIDE,) * (hi - lo)]
        unused = [part for part in unused if part not in candidates]
        parts = draw(st.permutations(candidates + unused))
        chosen = [draw(st.sampled_from(candidates)) for _ in range(count)]
        positions.append((parts, [parts.index(part) for part in chosen]))
        picks.append(chosen)
    rows = [sum(run, ()) for run in zip(*picks)] if picks else []
    return fields, rows, positions


@settings(max_examples=200, deadline=None)
@given(encoded_tables(), st.sampled_from(sorted(REFERENCES)))
def test_write_positions_matches_reference(table, fmt):
    fields, rows, positions = table
    out = io.StringIO()
    with redirect_stdout(out):
        _write_positions(positions, fields, fmt)
    assert out.getvalue() == REFERENCES[fmt](rows, fields)


class RecordingStdout:
    """A stdout that keeps what it is given and the length of each string."""

    def __init__(self):
        self.lengths = []
        self.chunks = []

    def write(self, text):
        self.lengths.append(len(text))
        self.chunks.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_enumerate_json_streams_one_record_at_a_time():
    out = RecordingStdout()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["enumerate", "emb", "--format", "json"]) == 0
    text = "".join(out.chunks)
    assert len(json.loads(text)["rows"]) == 8211
    records = re.findall(r"(?s)\n    \{\n.*?\n    \}", text)
    assert len(records) == 8211
    # The widest string passed is one record and the separator before it.
    assert max(out.lengths) <= max(map(len, records)) + len(",")
    assert len(out.lengths) >= 8211


# SHA-256 of stdout, recorded before the renderer was rewritten.  The
# benchmark's golden file covers these two commands in text only.
PINNED = {
    "table1 --format json": "ffe78c552c667279b0ce486a34445d4bb6a39ae1d74d12e672dd51bfeea2a010",
    "table1 --format csv": "c3505200c1e5a6ce99c66dd3e1bbd620467e21623c037fcd46efa80b81fd1a3c",
    "crosscheck --format json": "60755e467274f0c594e62eceb5d7f9f37cf6d25f4871cc7745abc4f9051d95bb",
    "crosscheck --format csv": "37217ec84ca39e0089b3a928ea0019a8c7e40e09f7e59ce9fdb1395f1fc172fe",
}


def stdout_digest(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(command.split()) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(PINNED))
def test_report_bytes_pinned(command):
    assert stdout_digest(command) == PINNED[command]


# SHA-256 of stdout for the enumerate outputs the golden file does not
# cover, recorded before ``enumerate`` rendered straight from the census.
ENUMERATE_PINNED = {
    "enumerate emb_a --format text": "e11d8e3bc20225ea3ed70d213268d5f14792d21e0d702c64a44d252ea4fca493",
    "enumerate emb_a --format csv": "135d0863bf21fbb3c329ed8fd5f39d0b9a52584eb75f76081b13c7af26e34e88",
    "enumerate emb_a --format json": "415ef41954b88c29834f6adc04f3cbe9d8fc6406cf8d8f0c2b79c1ff4c008593",
    "enumerate emb_b --format text": "71536ab46d69c52c02d0b31c7f00e115f87e8fbc1f72d390ebc052f0b8dc9e5c",
    "enumerate emb_b --format csv": "0ce358c6c4c4ae12acbf57270d28915d3bbee2db91bd7f7f1b2fdf9cf4863adb",
    "enumerate emb_b --format json": "b4ef20f5e59486dc3a2a5223bcb86729ab28a5060bf3809eef71cbcd9d19a382",
    "enumerate emb_c --format text": "016c778a12f9734a8ed8478ad0c94b26475db3157e8921d5c6f6265a78d82048",
    "enumerate emb_c --format csv": "c21b17eca0adfd0b2c58370c47c6743319b31d462840fe013abc2ec4144feffe",
    "enumerate emb_c --format json": "18d40b536bae675681c422a1716859d2a60a7453de7fd977ef692d9f57909f98",
    "enumerate mirror --format text": "5c9cad51256de123959237fcdd5f440a239c310b392bcff7592ff3c49cf97e43",
    "enumerate mirror --format csv": "1abfd0c5642ab129e198ee71ec57d87341844eef2718706459708f288dcf1250",
    "enumerate mirror --format json": "93bf312fe03bc38253e55879dfcd4e78e6c0f19c2defae0150d5bdeba82c7b21",
    "enumerate seq --format text": "87572b8f0f6afb3128247749084339734093691f185c566879577c14e71814c2",
    "enumerate seq --format csv": "74ea8a0e1848499a1a2118aa4633172d1be62d044c0cb5710e09556ff6b32edd",
    "enumerate seq --format json": "96bf8ab1bf4a0b54004bcf9f740d386ee84f03f185a026f72b4584310acdb019",
    "enumerate large_rank --format text": "2629656f3b85699e71e05b3a9b898670d0966db793c407846434ac0180e3abc0",
    "enumerate large_rank --format csv": "4d9485923dba3b88cb8686ed3400ea8970c40528e8efe8e28e4850b11e707cdf",
    "enumerate large_rank --format json": "532abe4c0b74a8fab71502c830dc9a14da339c536d360c31af74151524d671e1",
}


@pytest.mark.parametrize("command", list(ENUMERATE_PINNED))
def test_enumerate_bytes_pinned(command):
    assert stdout_digest(command) == ENUMERATE_PINNED[command]
