"""Seeded inputs for the three workloads.

Everything the program under test receives is made here from the seed:
the command order of each CLI pass, the ``grams`` battery and the
unimodular congruences that check it.  The ``models`` population is the
``source`` column of the packaged Nikulin catalog, read with the csv
module so that no catalog code of the program runs to produce it.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NIKULIN_CSV = SRC / "g2sum" / "data" / "nikulin.csv"

FORMATS = ("text", "csv", "json")
MODES = ("emb", "emb_a", "emb_b", "emb_c", "mirror", "seq", "large_rank")

RECORDS_COMMANDS = tuple(("enumerate", "emb", "--format", fmt) for fmt in FORMATS)
REPORTS_COMMANDS = (("validate",), ("table1",), ("crosscheck",)) + tuple(
    ("betti-list", mode) for mode in MODES
)
CLI_COMMANDS = {"records": RECORDS_COMMANDS, "reports": REPORTS_COMMANDS}
WORKLOADS = ("records", "reports", "lattice")
# Whole passes a run makes at least, however short its time budget: enough
# for a fixed tail percentile (p75 of 42, p90 of 100, p99 of 11 500 samples).
MIN_PASSES = {"records": 14, "reports": 10, "lattice": 20}

GRAM_COUNT = 500
GRAM_MAX_RANK = 5
GRAM_SPREAD = 4


def command_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def pass_order(commands: tuple, rng: random.Random) -> list:
    """One CLI pass: every command once, in an order drawn from ``rng``."""
    order = list(commands)
    rng.shuffle(order)
    return order


def read_models(path: Path = NIKULIN_CSV) -> list[dict]:
    """The catalog rows as ``{"r", "a", "delta", "source"}`` dicts."""
    with path.open(newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return [
        {"r": int(row["r"]), "a": int(row["a"]), "delta": int(row["delta"]), "source": row["source"]}
        for row in csv.DictReader(lines)
    ]


def exact_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination with pivoting."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def random_even_gram(rng: random.Random, n: int) -> list[list[int]]:
    """Even symmetric n x n matrix: off-diagonal entries in +-4, diagonal 2*(+-4)."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-GRAM_SPREAD, GRAM_SPREAD)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-GRAM_SPREAD, GRAM_SPREAD)
    return g


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    """A product of elementary row operations applied to the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def gram_battery(seed: int, count: int = GRAM_COUNT) -> list[dict]:
    """``count`` even nondegenerate Gram matrices, each with a congruence transform.

    Ranks 1..5 get equal shares, the expected mix of a uniform rank draw;
    fixing the shares keeps the work per pass from drifting with the seed.
    """
    rng = random.Random(f"grams-{seed}")
    battery = []
    for n in range(1, GRAM_MAX_RANK + 1):
        share = count * n // GRAM_MAX_RANK - count * (n - 1) // GRAM_MAX_RANK
        made = 0
        while made < share:
            gram = random_even_gram(rng, n)
            if exact_det(gram) != 0:
                battery.append({"gram": gram, "transform": random_unimodular(rng, n)})
                made += 1
    return battery
