"""Machine-speed reference, so that timings stay steady on a shared host.

On a 2-vCPU virtual machine on a shared host (Intel Xeon), the same
code runs up to 40 % slower for stretches of seconds to minutes, whatever
the program does (a fixed loop shows the same swings).  Raw medians of
30-second runs there moved by 20-50 % from run to run.  Every timed
operation (CLI workloads: each child; lattice: each pass of analyses) is
bracketed by a fixed reference task of a similar kind, and each timing is rescaled to a
host on which that task takes its nominal time::

    normalised = measured * nominal / mean(reference before, reference after)

Bracketing each CLI child rather than each pass halved the run-to-run
spread of the normalised medians.

The reference is benchmark code and does not change with the program, so
a change to the program moves normalised and raw timings alike; runs
report the raw figures next to the normalised ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

from clirun import code_wall

# A fresh interpreter running a fixed loop: what a CLI child pays besides g2sum.
CHILD_CODE = "def spin():\n    s = 0\n    for i in range(1_000_000):\n        s += i * i\nspin()\n"
CHILD_NOMINAL_S = 0.1
# Inside the lattice worker: exact Gaussian elimination of a fixed rational
# matrix, repeated.  Like the engine it allocates Fractions and row lists;
# a bare integer loop tracked the worker's slow phases less closely.
ELIMINATION_MATRIX = tuple(tuple(Fraction((7 * i + 3 * j) % 11 - 5) for j in range(9)) for i in range(9))
ELIMINATION_REPEATS = 60
ELIMINATION_NOMINAL_S = 0.05


def child_s(env: dict[str, str]) -> float:
    return code_wall(CHILD_CODE, env)


def elimination_s() -> float:
    start = time.perf_counter()
    n = len(ELIMINATION_MATRIX)
    for _ in range(ELIMINATION_REPEATS):
        a = [list(row) for row in ELIMINATION_MATRIX]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                continue
            a[col], a[pivot] = a[pivot], a[col]
            for r in range(col + 1, n):
                f = a[r][col] / a[col][col]
                for k in range(col, n):
                    a[r][k] -= f * a[col][k]
    return time.perf_counter() - start


def factors(refs: list[float], nominal: float) -> list[float]:
    """Scale factor of each timed stretch from the two references around it.

    ``refs`` holds one reference before the first stretch and one after
    each, so stretch ``k`` lies between ``refs[k]`` and ``refs[k + 1]``.
    """
    return [2 * nominal / (before + after) for before, after in zip(refs, refs[1:])]
