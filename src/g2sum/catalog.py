"""Catalog ingestion and validation.

Three CSV catalogs drive the enumerations:

* ``nikulin.csv`` — the classified invariant-lattice triples (r, a, delta)
  of non-symplectic involutions, one row each, with a model-lattice
  expression in the ``source`` column.  Pragma ``#complete`` asserts the
  full 75-row classification is present.
* ``fano.csv`` — deformation families of Fano threefolds with the three
  invariants (b2, b3, -K^3).  Pragma ``#complete-rank-1`` asserts all 17
  families with b2 = 1 are present.
* ``joyce.csv`` — optional comparison set of (b2, b3) pairs from the
  earlier construction; pragma ``#complete`` asserts the full 252-row set
  (239 of which satisfy b2+b3 = 3 mod 4).

Rows are read by one reader, which checks the field count against the
header and parses every column except ``id`` and ``source`` as an
integer; each loader then checks its own row rules.  Validation is
strict: any malformed row rejects the whole file with a ``path:line``
diagnostic.  Loaded catalogs are immutable.

The loaders own catalog I/O.  A file that cannot be read (missing, a
directory, a failed read) raises ``OSError`` whose message names the
path; bad content, including text that is not UTF-8, raises
``CatalogError``.  ``load_joyce`` returns ``None`` only when no path is
given and the default file is absent.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

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


class FixedLocus(NamedTuple):
    """Fixed locus of the involution on the quotient surface.

    ``GENERIC`` means one curve of genus ``genus`` plus ``rational_curves``
    rational curves; the two exceptional classes are EMPTY and
    TWO_ELLIPTIC_CURVES.
    """

    kind: str
    genus: int | None = None
    rational_curves: int | None = None

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

    def find(self, r: int, a: int, delta: int) -> NikulinTriple | None:
        for t in self.triples:
            if t.key == (r, a, delta):
                return t
        return None


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


def _read_rows(
    path: Path, header: tuple[str, ...]
) -> tuple[set[str], Iterator[tuple[int, tuple]]]:
    """Parse a catalog file into (pragmas, rows).

    Lines starting with ``#`` are comments; those spelling out a known
    pragma are collected.  The first data line must be the exact header.
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            pragma = line.lstrip("#").strip()
            if pragma in ("complete", "complete-rank-1"):
                pragmas.add(pragma)
            continue
        lines.append((lineno, line))
    if not lines:
        raise CatalogError(f"{path}: missing header line")
    lineno, line = lines[0]
    if [f.strip() for f in next(csv.reader([line]))] != list(header):
        raise CatalogError(
            f"{path}:{lineno}: expected header {','.join(header)!r}, got {line!r}"
        )
    return pragmas, ((n, _typed_row(path, n, line, header)) for n, line in lines[1:])


def _typed_row(path: Path, lineno: int, line: str, header: tuple[str, ...]) -> tuple:
    """One value per header column: ``id`` and ``source`` as stripped text,
    every other column as an integer."""
    fields = next(csv.reader([line]))
    if len(fields) != len(header):
        raise CatalogError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
    values: list[int | str] = []
    for name, value in zip(header, fields):
        if name in ("id", "source"):
            values.append(value.strip())
            continue
        try:
            values.append(int(value.strip()))
        except ValueError:
            raise CatalogError(
                f"{path}:{lineno}: field {name!r} must be an integer, got {value!r}"
            ) from None
    return tuple(values)


def load_nikulin(path: str | Path | None = None) -> NikulinCatalog:
    """Load and strictly validate the invariant-lattice triple catalog.

    Row rules: 1 <= r <= 20, 0 <= a <= 11, r - a >= 0 and even, r + a <= 22
    (the fixed curve's genus (22 - r - a)/2 is nonnegative), delta in
    {0, 1}; duplicate (r, a, delta) rejected.  Under the ``#complete``
    pragma the row count must be exactly 75.
    """
    p = Path(path) if path is not None else default_data_dir() / NIKULIN_FILENAME
    pragmas, rows = _read_rows(p, ("r", "a", "delta", "source"))
    triples: list[NikulinTriple] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, (r, a, delta, source) in rows:
        if not 1 <= r <= 20:
            raise CatalogError(f"{p}:{lineno}: r must be in 1..20, got {r}")
        if not 0 <= a <= 11:
            raise CatalogError(f"{p}:{lineno}: a must be in 0..11, got {a}")
        if r - a < 0:
            raise CatalogError(f"{p}:{lineno}: r - a must be nonnegative, got r={r}, a={a}")
        if (r - a) % 2 != 0:
            raise CatalogError(f"{p}:{lineno}: r - a must be even, got r={r}, a={a}")
        if r + a > 22:
            raise CatalogError(f"{p}:{lineno}: r + a must be at most 22, got r={r}, a={a}")
        if delta not in (0, 1):
            raise CatalogError(f"{p}:{lineno}: delta must be 0 or 1, got {delta}")
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

    Row rules: nonempty unique id, b2 >= 1, b3 even and >= 0, -K^3 even
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
    given path that cannot be read raises ``OSError``.  Under ``#complete``
    the set must have 252 rows, 239 of them satisfying b2 + b3 = 3 (mod 4).
    """
    if path is not None:
        p = Path(path)
    else:
        p = default_data_dir() / JOYCE_FILENAME
        if not p.exists():
            return None
    pragmas, rows = _read_rows(p, ("b2", "b3"))
    pairs: list[tuple[int, int]] = []
    for lineno, (b2, b3) in rows:
        if b2 < 0 or b3 < 0:
            raise CatalogError(f"{p}:{lineno}: Betti numbers must be nonnegative")
        pairs.append((b2, b3))
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

    The one definition of the mirror relation.  It is symmetric and
    excludes the class with an empty fixed locus, (10,10,0), which gives
    no building block and is its own partner, and (14,6,0), whose partner
    shape (6,6,0) is no even 2-elementary lattice of signature (1, 5).
    """
    partner = (20 - t.r, t.a, t.delta)
    if fixed_locus(t).kind == EMPTY or (14, 6, 0) in (t.key, partner):
        return None
    return partner


def mirror_partner(t: NikulinTriple, catalog: NikulinCatalog) -> NikulinTriple | None:
    """The catalog triple at ``mirror_key(t)``; None without a key or a row."""
    key = mirror_key(t)
    return None if key is None else catalog.find(*key)


def mirror_pairs(catalog: NikulinCatalog) -> list[tuple[NikulinTriple, NikulinTriple]]:
    """All unordered mirror pairs, canonically ordered (r <= 10 first)."""
    by_key: dict[tuple[int, int, int], NikulinTriple] = {}
    for t in catalog:
        by_key.setdefault(t.key, t)  # the row ``NikulinCatalog.find`` returns
    partners = ((t, by_key.get(mirror_key(t))) for t in catalog if t.r <= 10)
    return [(t, partner) for t, partner in partners if partner is not None]
