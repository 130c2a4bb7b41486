"""Catalog ingestion and validation.

Three comma-separated catalogs drive the enumerations:

* ``nikulin.csv`` — the classified invariant-lattice triples (r, a, delta)
  of non-symplectic involutions, one row each, with a model-lattice
  expression in the ``source`` column.  Each row must pass Nikulin's
  existence theorem; pragma ``#complete`` asserts all 75 classes are
  present.
* ``fano.csv`` — deformation families of Fano threefolds with the three
  invariants (b2, b3, -K^3).  Pragma ``#complete-rank-1`` asserts all 17
  families with b2 = 1 are present.
* ``joyce.csv`` — optional comparison set of (b2, b3) pairs from the
  earlier construction; pragma ``#complete`` asserts the full 252-row set
  (239 of which satisfy b2+b3 = 3 mod 4).

Rows are read by one reader, which follows the line grammar below and
nothing else; each loader then checks its own row rules.  Validation is
strict: any malformed row rejects the whole file with a ``path:line``
diagnostic.  Loaded catalogs are immutable.

The line grammar:

* A line ends only at a line ending (``read_text`` turns ``\r\n`` and
  ``\r`` into ``\n``), so U+2028, U+0085 and form feed stay inside a
  line.  Each line is stripped of ASCII space and tab, and blank lines are
  skipped.
* A line starting with ``#`` is a comment.  It is a pragma only when the
  text after that ``#``, stripped of ASCII space and tab, is exactly
  ``complete`` or ``complete-rank-1``.
* The first other line is the header; every later one is a data line.
  Both are cells separated by ``,``, with no quoting: a line that holds
  ``"`` is rejected.  The header's cells must be the loader's column
  names, and a data line needs one cell per column.
* Each cell is stripped of ASCII space and tab only.  An integer cell is
  ``[+-]?[0-9]+`` of at most ``sys.get_int_max_str_digits()`` digits
  (4300 by default); an ``id`` or ``source`` cell is any other text.

ASCII space and tab are the only padding: U+00A0 in a cell is text, and so
is U+FEFF, so a file that starts with a UTF-8 byte-order mark fails its
header check.

The loaders own catalog I/O.  A file that cannot be read (missing, a
directory, a failed read) raises ``OSError`` whose message names the
path; bad content, including text that is not UTF-8, raises
``CatalogError``.  ``load_joyce`` returns ``None`` only when no path is
given and the default file is absent.
"""

from __future__ import annotations

import os
import re
import sys
from collections import namedtuple
from pathlib import Path
from typing import Iterator, Sequence

from ._frozen import Frozen

NIKULIN_FILENAME = "nikulin.csv"
FANO_FILENAME = "fano.csv"
JOYCE_FILENAME = "joyce.csv"

EMPTY = "EMPTY"
TWO_ELLIPTIC_CURVES = "TWO_ELLIPTIC_CURVES"
GENERIC = "GENERIC"


class CatalogError(ValueError):
    """A catalog file failed validation; the message carries path:line."""


class NikulinTriple(Frozen, ignore=("source",)):
    """One isomorphism class of invariant lattices, keyed by (r, a, delta).

    ``source`` (the model-lattice expression) takes no part in equality.
    """

    __slots__ = ("r", "a", "delta", "source")

    def __init__(self, r: int, a: int, delta: int, source: str = "") -> None:
        self._fill(r, a, delta, source)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.r, self.a, self.delta)


class FanoFamily(Frozen, ignore=("source",)):
    """One deformation family of Fano threefolds; ``source`` takes no part in equality."""

    __slots__ = ("id", "b2", "b3", "minus_k3", "source")

    def __init__(self, id: str, b2: int, b3: int, minus_k3: int, source: str = "") -> None:
        self._fill(id, b2, b3, minus_k3, source)

    @property
    def g(self) -> int:
        """The combination b3 + (-K^3) that enters every glued b3 formula."""
        return self.b3 + self.minus_k3


class FixedLocus(namedtuple("FixedLocus", "kind genus rational_curves", defaults=(None, None))):
    """Fixed locus of the involution on the quotient surface.

    ``GENERIC`` means one curve of genus ``genus`` plus ``rational_curves``
    rational curves; the two exceptional classes are EMPTY and
    TWO_ELLIPTIC_CURVES.
    """

    __slots__ = ()

    @property
    def curve_count(self) -> int:
        if self.kind == EMPTY:
            return 0
        if self.kind == TWO_ELLIPTIC_CURVES:
            return 2
        if self.rational_curves is None:
            raise ValueError(f"{self.kind} fixed locus needs rational_curves")
        return self.rational_curves + 1

    @property
    def euler_sum(self) -> int:
        """Total Euler characteristic of the fixed curves."""
        if self.kind == EMPTY or self.kind == TWO_ELLIPTIC_CURVES:
            return 0
        if self.genus is None or self.rational_curves is None:
            raise ValueError(f"{self.kind} fixed locus needs genus and rational_curves")
        return (2 - 2 * self.genus) + 2 * self.rational_curves


class _Rows(Sequence):
    """``Sequence`` over the row tuple in a catalog's first slot.  Not a ``Frozen``:
    that base builds an equality key from each subclass's slots, and this has none."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        return iter(getattr(self, self.__slots__[0]))

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, i):  # type: ignore[override]
        return getattr(self, self.__slots__[0])[i]


class NikulinCatalog(Frozen, _Rows):
    __slots__ = ("triples", "complete")

    def __init__(self, triples: tuple[NikulinTriple, ...], complete: bool) -> None:
        self._fill(triples, complete)


class FanoCatalog(Frozen, _Rows):
    __slots__ = ("families", "complete_rank_1")

    def __init__(self, families: tuple[FanoFamily, ...], complete_rank_1: bool) -> None:
        self._fill(families, complete_rank_1)


class JoyceCatalog(Frozen, _Rows):
    __slots__ = ("pairs", "complete")

    def __init__(self, pairs: tuple[tuple[int, int], ...], complete: bool) -> None:
        self._fill(pairs, complete)


def default_data_dir() -> Path:
    """Catalog directory: $G2SUM_DATA_DIR if set, else the packaged assets."""
    env = os.environ.get("G2SUM_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


# What a catalog line and a cell are padded with: ASCII space and tab.
_BLANK = " \t"


def _read_rows(
    path: Path, header: tuple[str, ...]
) -> tuple[set[str], Iterator[tuple[int, tuple]]]:
    """Parse a catalog file into (pragmas, rows) by the line grammar above.

    ``rows`` yields ``(lineno, values)`` per data line, typed by
    ``_typed_row`` as it is drawn, so the first fault in file order is the
    one reported.
    """
    pragmas: set[str] = set()
    lines: list[tuple[int, str]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: catalog is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        # A failed read (EIO, say) carries no path of its own; name it.
        if exc.filename is None:
            exc.filename = str(path)
        raise
    # Not ``splitlines``, which also ends a line at U+2028, U+0085 and form feed.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_BLANK)
        if not line:
            continue
        if line.startswith("#"):
            pragma = line[1:].strip(_BLANK)
            if pragma in ("complete", "complete-rank-1"):
                pragmas.add(pragma)
            continue
        lines.append((lineno, line))
    if not lines:
        raise CatalogError(f"{path}: missing header line")
    lineno, line = lines[0]
    # A quoted header cell is never a column name, so no quote gets past this.
    if [cell.strip(_BLANK) for cell in line.split(",")] != list(header):
        raise CatalogError(
            f"{path}:{lineno}: expected header {','.join(header)!r}, got {line!r}"
        )
    return pragmas, ((n, _typed_row(path, n, line, header)) for n, line in lines[1:])


# An integer cell: an optional sign and ASCII digits, none of the ``_``
# separators or other Unicode digits that ``int`` also reads.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _typed_row(path: Path, lineno: int, line: str, header: tuple[str, ...]) -> tuple:
    """One value per header column: ``id`` and ``source`` as text, every
    other column as an integer."""
    if '"' in line:
        raise CatalogError(f"{path}:{lineno}: cells are not quoted, so '\"' may not appear")
    cells = line.split(",")
    if len(cells) != len(header):
        raise CatalogError(f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}")
    values: list[int | str] = []
    for name, cell in zip(header, cells):
        text = cell.strip(_BLANK)
        if name in ("id", "source"):
            values.append(text)
        elif _INTEGER.fullmatch(text):
            try:
                values.append(int(text))
            except ValueError:  # more digits than ``int`` converts
                message = f"field {name!r} has over {sys.get_int_max_str_digits()} digits"
                raise CatalogError(f"{path}:{lineno}: {message}") from None
        else:
            raise CatalogError(f"{path}:{lineno}: field {name!r} must be an integer, got {cell!r}")
    return tuple(values)


def _two_elementary_exists(t_plus: int, t_minus: int, a: int, delta: int) -> bool:
    """Whether an even 2-elementary lattice of signature (t_plus, t_minus)
    with invariants a and delta exists (Nikulin 1979, Thm 3.6.2)."""
    r = t_plus + t_minus
    s = (t_plus - t_minus) % 8  # the signature's difference, mod 8
    return (
        a <= r
        and (r - a) % 2 == 0
        and (delta == 1 or s % 4 == 0)
        and (a != 0 or (delta == 0 and s == 0))
        and (a != 1 or s in (1, 7))
        and (a != 2 or s != 4 or delta == 0)
        and (delta == 1 or a != r or s == 0)
    )


def load_nikulin(path: str | Path | None = None) -> NikulinCatalog:
    """Load and strictly validate the invariant-lattice triple catalog.

    Row rules: 1 <= r <= 20, a >= 0, delta in {0, 1}; then Nikulin's
    existence theorem (Thm 3.6.2) for the invariant lattice, of signature
    (1, r - 1), and for its complement in the K3 lattice, of signature
    (2, 20 - r), each with the row's a and delta.  The theorem implies a <= r,
    r - a even and r + a <= 22 (the fixed curve's genus is nonnegative);
    duplicate (r, a, delta) rejected.  So every row is one of Nikulin's 75
    classes, and under the ``#complete`` pragma the row count must be
    exactly 75: all of them.
    """
    p = Path(path) if path is not None else default_data_dir() / NIKULIN_FILENAME
    pragmas, rows = _read_rows(p, ("r", "a", "delta", "source"))
    triples: list[NikulinTriple] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, (r, a, delta, source) in rows:
        if not 1 <= r <= 20:
            raise CatalogError(f"{p}:{lineno}: r must be in 1..20, got {r}")
        if a < 0:
            raise CatalogError(f"{p}:{lineno}: a must be nonnegative, got {a}")
        if delta not in (0, 1):
            raise CatalogError(f"{p}:{lineno}: delta must be 0 or 1, got {delta}")
        for signature in ((1, r - 1), (2, 20 - r)):
            if not _two_elementary_exists(*signature, a, delta):
                raise CatalogError(
                    f"{p}:{lineno}: no even 2-elementary lattice of signature {signature} "
                    f"has a={a}, delta={delta} (Nikulin, Thm 3.6.2), so ({r},{a},{delta}) "
                    "is no involution class"
                )
        if (r, a, delta) in seen:
            raise CatalogError(f"{p}:{lineno}: duplicate triple ({r},{a},{delta})")
        seen.add((r, a, delta))
        triples.append(NikulinTriple(r, a, delta, source))
    complete = "complete" in pragmas
    if complete and len(triples) != 75:
        raise CatalogError(
            f"{p}: file declares itself complete but has {len(triples)} rows, expected 75"
        )
    return NikulinCatalog(triples=tuple(triples), complete=complete)


def load_fano(path: str | Path | None = None) -> FanoCatalog:
    """Load and strictly validate the Fano family catalog.

    Row rules: nonempty unique id, 1 <= b2 <= 10 (every smooth Fano
    threefold has Picard rank at most 10), b3 even and >= 0, -K^3 even
    and positive.  Under ``#complete-rank-1`` exactly 17 rows must have
    b2 = 1.
    """
    p = Path(path) if path is not None else default_data_dir() / FANO_FILENAME
    pragmas, rows = _read_rows(p, ("id", "b2", "b3", "minus_k3", "source"))
    families: list[FanoFamily] = []
    seen_ids: set[str] = set()
    for lineno, (fid, b2, b3, minus_k3, source) in rows:
        if not fid:
            raise CatalogError(f"{p}:{lineno}: family id must be nonempty")
        if b2 < 1:
            raise CatalogError(f"{p}:{lineno}: b2 must be >= 1, got {b2}")
        if b2 > 10:
            raise CatalogError(f"{p}:{lineno}: b2 must be at most 10, got {b2}")
        if b3 < 0 or b3 % 2 != 0:
            raise CatalogError(f"{p}:{lineno}: b3 must be even and >= 0, got {b3}")
        if minus_k3 <= 0 or minus_k3 % 2 != 0:
            raise CatalogError(
                f"{p}:{lineno}: -K^3 must be even and positive, got {minus_k3}"
            )
        if fid in seen_ids:
            raise CatalogError(f"{p}:{lineno}: duplicate family id {fid!r}")
        seen_ids.add(fid)
        families.append(FanoFamily(fid, b2, b3, minus_k3, source))
    complete_rank_1 = "complete-rank-1" in pragmas
    if complete_rank_1:
        n1 = sum(1 for f in families if f.b2 == 1)
        if n1 != 17:
            raise CatalogError(
                f"{p}: file declares rank-1 completeness but has {n1} rows with b2=1, "
                "expected 17"
            )
    return FanoCatalog(families=tuple(families), complete_rank_1=complete_rank_1)


def load_joyce(path: str | Path | None = None) -> JoyceCatalog | None:
    """Load the optional comparison catalog.

    None only when no path is given and the default file is absent; a
    given path that cannot be read raises ``OSError``.  The pairs are
    nonnegative and distinct; under ``#complete`` there must be 252, 239
    of them satisfying b2 + b3 = 3 (mod 4).
    """
    if path is not None:
        p = Path(path)
    else:
        p = default_data_dir() / JOYCE_FILENAME
        if not p.exists():
            return None
    pragmas, rows = _read_rows(p, ("b2", "b3"))
    pairs: dict[tuple[int, int], None] = {}  # an ordered set
    for lineno, (b2, b3) in rows:
        if b2 < 0 or b3 < 0:
            raise CatalogError(f"{p}:{lineno}: Betti numbers must be nonnegative")
        if (b2, b3) in pairs:
            raise CatalogError(f"{p}:{lineno}: duplicate pair {(b2, b3)}")
        pairs[b2, b3] = None
    complete = "complete" in pragmas
    if complete:
        if len(pairs) != 252:
            raise CatalogError(
                f"{p}: file declares itself complete but has {len(pairs)} rows, expected 252"
            )
        mod4 = sum(1 for b2, b3 in pairs if (b2 + b3) % 4 == 3)
        if mod4 != 239:
            raise CatalogError(
                f"{p}: complete set must have 239 rows with b2+b3 = 3 mod 4, got {mod4}"
            )
    return JoyceCatalog(pairs=tuple(pairs), complete=complete)


def fixed_locus(t: NikulinTriple) -> FixedLocus:
    """Fixed locus of the involution class (r, a, delta).

    Empty for (10,10,0); two elliptic curves for (10,8,0); otherwise one
    curve of genus (22-r-a)/2 plus (r-a)/2 rational curves.  An EMPTY
    locus is the one test for "this class yields no building block".
    """
    if t.key == (10, 10, 0):
        return FixedLocus(kind=EMPTY)
    if t.key == (10, 8, 0):
        return FixedLocus(kind=TWO_ELLIPTIC_CURVES)
    genus = (22 - t.r - t.a) // 2
    rational = (t.r - t.a) // 2
    return FixedLocus(kind=GENERIC, genus=genus, rational_curves=rational)


def mirror_key(t: NikulinTriple) -> tuple[int, int, int] | None:
    """The key (20-r, a, delta) of the mirror partner of ``t``, or None.

    The one definition of the mirror relation.  Nikulin's Thm 3.6.2 must
    admit signature (1, s-1) with t's a and delta for s = r and s = 20-r,
    both, so that the relation is symmetric; (10,10,0), whose fixed locus
    is empty, gives no building block and has no partner.
    """
    partner = (20 - t.r, t.a, t.delta)
    admitted = all(_two_elementary_exists(1, s - 1, t.a, t.delta) for s in (t.r, 20 - t.r))
    if fixed_locus(t).kind == EMPTY or not admitted:
        return None
    return partner


def mirror_pairs(catalog: NikulinCatalog) -> list[tuple[NikulinTriple, NikulinTriple]]:
    """All unordered mirror pairs, canonically ordered (r <= 10 first)."""
    by_key = {t.key: t for t in reversed(catalog)}  # a repeated key keeps its first row
    partners = ((t, by_key.get(mirror_key(t))) for t in catalog if t.r <= 10)
    return [(t, partner) for t, partner in partners if partner is not None]
