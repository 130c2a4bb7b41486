"""Correctness checks for every operation the benchmark times.

CLI outputs are checked against ``golden.json`` (SHA-256 of stdout and the
exit code of each command, recorded from the program) and against
structural totals of the paper's enumeration that do not depend on that
file.  Stderr is not part of the golden output.  Lattice analyses are
checked against the catalog triple of each model and, for the Gram
battery, against the defining identities of the Smith normal form.

Run ``python3 perfbench/oracle.py --write-golden`` to record the golden
file from the program in ``src``; each output it records must pass the
structural checks first.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

from clirun import child_env, run_cli
from inputs import CLI_COMMANDS, command_key, exact_det

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

EMB_ROWS = 8211
EMB_CLAUSES = {"EMB_A": 5198, "EMB_B": 2788, "EMB_C": 225}
EMB_DIAGONAL = 107
EMB_DISTINCT = 302
ALL_MODES_DISTINCT = 396
UNION_MODES = ("emb", "mirror", "seq", "large_rank")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())["commands"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_rows(argv: tuple[str, ...], stdout: bytes) -> list[dict]:
    """Data rows of one command's stdout, in the format it was asked for."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    text = stdout.decode()
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    header = lines[0].split()
    # Text cells hold no spaces except in the last column, which may be
    # empty (flags) or a space-joined list (b3_values).
    rows = []
    for line in lines[1:]:
        cells = line.split(None, len(header) - 1)
        cells += [""] * (len(header) - len(cells))
        rows.append(dict(zip(header, (c.strip() for c in cells))))
    return rows


def structure_errors(argv: tuple[str, ...], stdout: bytes) -> list[str]:
    """Paper totals that this command's output must show."""
    try:
        rows = parse_rows(argv, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc}"]
    errors = []
    if argv[:2] == ("enumerate", "emb"):
        clauses = Counter(str(r["mode"]) for r in rows)
        diagonal = sum(1 for r in rows if r["block1"] == r["block2"])
        distinct = len({(str(r["b2"]), str(r["b3"])) for r in rows})
        if len(rows) != EMB_ROWS:
            errors.append(f"{len(rows)} rows, expected {EMB_ROWS}")
        if dict(clauses) != EMB_CLAUSES:
            errors.append(f"clause split {dict(clauses)}, expected {EMB_CLAUSES}")
        if diagonal != EMB_DIAGONAL:
            errors.append(f"{diagonal} diagonal pairs, expected {EMB_DIAGONAL}")
        if distinct != EMB_DISTINCT:
            errors.append(f"{distinct} distinct Betti pairs, expected {EMB_DISTINCT}")
    elif argv == ("betti-list", "emb") and len(rows) != EMB_DISTINCT:
        errors.append(f"{len(rows)} emb Betti pairs, expected {EMB_DISTINCT}")
    elif argv == ("crosscheck",):
        status = {r["check"]: (r["items"], r["status"]) for r in rows}
        expected = {
            "pair_totals": (
                str(EMB_ROWS),
                "a={EMB_A} b={EMB_B} c={EMB_C} diagonal=".format(**EMB_CLAUSES)
                + str(EMB_DIAGONAL),
            ),
            "distinct_betti": (str(ALL_MODES_DISTINCT), f"emb={EMB_DISTINCT}"),
        }
        for check, (items, prefix) in expected.items():
            got = status.get(check)
            if got is None or got[0] != items or not got[1].startswith(prefix):
                errors.append(f"crosscheck {check} reads {got}, expected {items} {prefix}")
    return errors


def betti_pairs(stdout: bytes) -> set[tuple[str, str]]:
    return {(r["b2"], r["b3"]) for r in parse_rows(("betti-list",), stdout)}


class CliChecker:
    """Checks CLI operations; structural checks run once per distinct output."""

    def __init__(self, golden: dict):
        self.golden = golden
        self._verdicts: dict[tuple[str, str], list[str]] = {}
        self.pairs: dict[str, set] = {}

    def check(self, argv: tuple[str, ...], exit_code: int, stdout: bytes) -> list[str]:
        """Errors for one operation; an empty list means it passed."""
        key = command_key(argv)
        digest = sha256(stdout)
        errors = []
        expected = self.golden.get(key)
        if expected is None:
            return [f"{key}: no golden output recorded"]
        if exit_code != expected["exit"]:
            errors.append(f"{key}: exit {exit_code}, expected {expected['exit']}")
        if digest != expected["sha256"]:
            errors.append(f"{key}: stdout differs from the golden output")
        cached = self._verdicts.get((key, digest))
        if cached is None:
            cached = [f"{key}: {e}" for e in structure_errors(argv, stdout)]
            self._verdicts[(key, digest)] = cached
            if argv[0] == "betti-list" and not cached:
                self.pairs[digest] = betti_pairs(stdout)
        return errors + cached

    def check_pass(self, results: list[tuple[tuple[str, ...], int, bytes]]) -> list[list[str]]:
        """Errors per operation of one pass of ``(argv, exit_code, stdout)``.

        A pass that lists Betti pairs for every mode must also reach the
        all-modes total; if it does not, each of its betti-list operations fails.
        """
        errors = [self.check(argv, code, stdout) for argv, code, stdout in results]
        listed = {argv[1]: sha256(stdout) for argv, _, stdout in results if argv[0] == "betti-list"}
        if not set(UNION_MODES) <= set(listed):
            return errors
        union: set = set()
        for mode in UNION_MODES:
            union |= self.pairs.get(listed[mode], set())
        if len(union) != ALL_MODES_DISTINCT:
            message = f"{len(union)} distinct Betti pairs over all modes, expected {ALL_MODES_DISTINCT}"
            for found, (argv, _, _) in zip(errors, results):
                if argv[0] == "betti-list":
                    found.append(message)
        return errors


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(m):
    return [list(col) for col in zip(*m)]


def as_lists(m) -> list[list[int]]:
    return [list(row) for row in m]


def model_errors(model: dict, analysis) -> list[str]:
    """A catalog model must realise its triple (r, a, delta) with signature (1, r-1)."""
    rank, sig, _det, _snf, disc = analysis
    r, a, delta = model["r"], model["a"], model["delta"]
    errors = []
    if rank != r:
        errors.append(f"rank {rank}, expected {r}")
    if tuple(sig) != (1, r - 1):
        errors.append(f"signature {tuple(sig)}, expected (1, {r - 1})")
    if not disc.is_2_elementary or disc.l != a:
        errors.append(f"l = {disc.l} (2-elementary {disc.is_2_elementary}), expected a = {a}")
    if disc.delta != delta:
        errors.append(f"delta {disc.delta}, expected {delta}")
    return [f"model {model['source']!r}: {e}" for e in errors]


def gram_errors(item: dict, analysis, congruent_signature) -> list[str]:
    """Smith-form identities, the determinant and signature invariance.

    ``congruent_signature`` is the engine's signature of ``P^T G P`` for the
    item's seeded unimodular ``P``.
    """
    gram = item["gram"]
    n = len(gram)
    _rank, sig, det, snf, _disc = analysis
    u, s, v = as_lists(snf.U), as_lists(snf.S), as_lists(snf.V)
    errors = []
    if mat_mul(mat_mul(u, gram), v) != s:
        errors.append("U*G*V != S")
    if abs(exact_det(u)) != 1 or abs(exact_det(v)) != 1:
        errors.append("U or V is not unimodular")
    diag = [s[i][i] for i in range(n)]
    if any(s[i][j] for i in range(n) for j in range(n) if i != j) or any(x <= 0 for x in diag):
        errors.append(f"S is not a positive diagonal: {s}")
    elif any(b % a for a, b in zip(diag, diag[1:])):
        errors.append(f"diagonal {diag} breaks the divisibility chain")
    product = 1
    for x in diag:
        product *= x
    if abs(det) != product or det != exact_det(gram):
        errors.append(f"det {det}, |det| should be {product} and det {exact_det(gram)}")
    if tuple(congruent_signature) != tuple(sig):
        errors.append(f"signature {tuple(sig)} changes to {tuple(congruent_signature)} under congruence")
    return [f"gram {gram}: {e}" for e in errors]


def write_golden() -> int:
    """Record stdout digests and exit codes of every CLI command from ``src``."""
    env = child_env()
    commands = {}
    failed = False
    for argv in CLI_COMMANDS["records"] + CLI_COMMANDS["reports"]:
        op = run_cli(argv, env)
        errors = structure_errors(argv, op.stdout)
        if op.exit_code != 0 or errors:
            print(f"{command_key(argv)}: exit {op.exit_code} {errors}", file=sys.stderr)
            failed = True
        commands[command_key(argv)] = {"sha256": sha256(op.stdout), "exit": op.exit_code, "bytes": len(op.stdout)}
    if failed:
        print("golden output not written", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps({"commands": commands}, indent=2) + "\n")
    print(f"wrote {len(commands)} commands to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        print("usage: python3 perfbench/oracle.py --write-golden", file=sys.stderr)
        sys.exit(2)
    sys.exit(write_golden())
