"""Child process of the benchmark: the in-process loops.

Reads one JSON job from stdin and prints one JSON result on stdout.

* ``lattice``: the untraced library loop over the ``models`` and
  ``grams`` populations, one analysis timed at a time.
* ``trace-lattice`` / ``trace-cli``: alternating untraced and traced
  passes; the traced passes record spans around each layer boundary and
  fold them into per-layer figures.  CLI commands run through
  ``g2sum.cli.main(argv)`` with stdout captured in memory.

Correctness checks run between timed calls, never inside one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from collections import Counter, defaultdict

import g2sum.cli as cli
import g2sum.lattice_core as lattice_core

import oracle
import reference
import spans
from inputs import CLI_COMMANDS, MIN_PASSES, command_key, pass_order

POPULATIONS = ("models", "grams")
MAX_REPORTED_ERRORS = 5


class Outcome:
    """Attempted and failed operations, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            room = MAX_REPORTED_ERRORS - len(self.errors)
            self.errors.extend(errors[: max(room, 0)])


# --- lattice -----------------------------------------------------------------


def analyse(item: dict, population: str):
    """One full analysis; the engine is looked up at call time so spans can wrap it."""
    if population == "models":
        lat = lattice_core.parse_lattice_expr(item["source"])
    else:
        lat = lattice_core.IntLattice(item["gram"])
    return (lat.rank, lat.signature(), lat.determinant(), lat.smith_normal_form(), lat.discriminant())


def expected_results(job: dict) -> tuple[dict, dict]:
    """Untimed warm-up: analyse every element once and check it fully."""
    expected, errors = {}, {}
    for population in POPULATIONS:
        expected[population], errors[population] = [], []
        for item in job[population]:
            try:
                result = analyse(item, population)
                if population == "models":
                    found = oracle.model_errors(item, result)
                else:
                    congruent = oracle.mat_mul(
                        oracle.mat_mul(oracle.transpose(item["transform"]), item["gram"]),
                        item["transform"],
                    )
                    found = oracle.gram_errors(
                        item, result, lattice_core.IntLattice(congruent).signature()
                    )
            except Exception as exc:  # any engine failure is a failed operation
                result, found = None, [f"{population} analysis raised {exc!r}"]
            expected[population].append(result)
            errors[population].append(found)
    return expected, errors


def lattice_pass(job, expected, expected_errors, rng, outcome, times, populations=POPULATIONS) -> int:
    """Every element of the populations once, each analysis timed alone."""
    clock = time.perf_counter_ns
    total = 0
    for population in populations:
        items = job[population]
        order = list(range(len(items)))
        rng.shuffle(order)
        sink = times[population]
        for i in order:
            start = clock()
            try:
                result = analyse(items[i], population)
            except Exception as exc:  # counted below as a failed operation
                result = exc
            elapsed = clock() - start
            sink.append(elapsed)
            total += elapsed
            found = expected_errors[population][i]
            if not found and result != expected[population][i]:
                found = [f"{population}[{i}] differs from its checked reference: {result!r}"]
            outcome.record(found)
    return total


def run_lattice(job: dict) -> dict:
    expected, expected_errors = expected_results(job)
    rng = random.Random(f"lattice-order-{job['seed']}")
    outcome = Outcome()
    times = {p: [] for p in POPULATIONS}
    speed = [reference.elimination_s()]
    peak_rss_kb = 0
    deadline = time.perf_counter() + job["seconds"]
    while time.perf_counter() < deadline or len(speed) <= MIN_PASSES["lattice"]:
        lattice_pass(job, expected, expected_errors, rng, outcome, times)
        speed.append(reference.elimination_s())
        if len(speed) == MIN_PASSES["lattice"] + 1:
            # Taken after a fixed number of passes: the timing samples kept
            # from here on grow with throughput, not with the program.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"outcome": vars(outcome), "times_ns": times, "speed_s": speed, "peak_rss_kb": peak_rss_kb}


def lattice_metric_keys() -> list[tuple[str, str]]:
    return [(p, q) for p in POPULATIONS for q in ("parse",) + spans.LATTICE_PRIMITIVES]


def run_trace_lattice(job: dict) -> dict:
    expected, expected_errors = expected_results(job)
    rng = random.Random(f"lattice-order-{job['seed']}")
    outcome = Outcome()
    tracer = spans.Tracer()
    untraced_ns = traced_ns = passes = 0
    self_ns = {p: Counter() for p in POPULATIONS}
    calls = {p: Counter() for p in POPULATIONS}
    kept: list = []
    deadline = time.perf_counter() + job["seconds"]
    while passes == 0 or time.perf_counter() < deadline:
        untraced_ns += lattice_pass(job, expected, expected_errors, rng, outcome, defaultdict(list))
        spans.install_lattice(tracer)
        try:
            for population in POPULATIONS:
                traced_ns += lattice_pass(
                    job, expected, expected_errors, rng, outcome, defaultdict(list), (population,)
                )
                recorded, _, _ = tracer.take()
                if passes == 0:
                    kept.append({"population": population, "spans": recorded})
                for span, own in zip(recorded, spans.self_times(recorded)):
                    self_ns[population][span[0]] += own
                    calls[population][span[0]] += 1
        finally:
            tracer.unpatch()
        passes += 1
    metrics = {}
    for population, primitive in lattice_metric_keys():
        name = "lattice_core." + primitive
        metrics[f"{name}_s.{population}"] = self_ns[population][name] / passes / 1e9
        metrics[f"{name}_calls.{population}"] = calls[population][name] / passes
    metrics.update(CliLayers().metrics())  # no CLI layer runs here: all read 0
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    write_spans(job["spans_path"], kept)
    return {"outcome": vars(outcome), "metrics": metrics, "passes": passes}


# --- CLI in-process --------------------------------------------------------------


class Capture(io.TextIOBase):
    """Stdout stand-in that keeps what the CLI writes, for the checks afterwards."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def getvalue(self) -> bytes:
        return "".join(self.parts).encode()


def call_main(argv: tuple[str, ...]) -> tuple[int, bytes, int]:
    """``g2sum.cli.main(argv)`` with stdout captured and stderr discarded."""
    out = Capture()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed


def command_class(argv: tuple[str, ...]) -> str:
    return argv[-1] if argv[:2] == ("enumerate", "emb") else "reports"


class CliLayers:
    """Per-command sums of span self times and counters."""

    def __init__(self) -> None:
        self.commands = 0
        self.passes = 0
        self.kept: list = []  # the spans of the first traced pass
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: Counter = Counter()
        self.main_self: defaultdict = defaultdict(list)
        self.bytes_out: defaultdict = defaultdict(list)

    def fold(self, argv, recorded, counts, distinct, stdout: bytes) -> list[str]:
        """Add one traced command; returns an error if self times miss the root span."""
        own = spans.self_times(recorded)
        self.commands += 1
        for span, self_time in zip(recorded, own):
            self.self_ns[span[0]] += self_time
            self.incl_ns[span[0]] += span[2] - span[1]
            self.calls[span[0]] += 1
        self.counts.update(counts)
        for layer, inputs in distinct.items():
            self.distinct[layer] += len(inputs)
        kind = command_class(argv)
        self.main_self[kind].append(own[0])
        self.bytes_out[kind].append(len(stdout))
        roots = [s for s in recorded if s[3] < 0]
        if len(roots) != 1 or roots[0][0] != "cli.main" or sum(own) != roots[0][2] - roots[0][1]:
            return [f"{command_key(argv)}: span self times do not add up to cli.main"]
        return []

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.startswith(layer + ".")) / 1e9

    def metrics(self) -> dict:
        n = self.commands or 1  # no commands folded: every figure reads 0
        m = {
            "catalog.load_s": sum(v for k, v in self.self_ns.items() if k.startswith("catalog.load_")) / 1e9 / n,
            "catalog.rows": self.counts["catalog.rows"] / n,
            "building_blocks.calls": self.counts["building_blocks.calls"] / n,
            "building_blocks.distinct": self.distinct["building_blocks"] / n,
            "building_blocks.self_s": self.layer_self("building_blocks") / n,
            "embedding.certificates": self.counts["embedding.certificates"] / n,
            "embedding.distinct_inputs": self.distinct["embedding"] / n,
            "embedding.self_s": self.layer_self("embedding") / n,
            "enumerator.self_s": self.layer_self("enumerator") / n,
            "enumerator.glue_calls": self.counts["enumerator.glue_calls"] / n,
            "enumerator.records": self.counts["enumerator.records"] / n,
            "enumerator.emb_runs_per_cmd": self.calls["enumerator.enumerate_emb"] / n,
        }
        m["building_blocks.useful_ratio"] = _ratio(self.distinct["building_blocks"], self.counts["building_blocks.calls"])
        m["embedding.useful_ratio"] = _ratio(self.distinct["embedding"], self.counts["embedding.certificates"])
        for rule in ("numeric", "mirror-pair", "large-rank-rank-one"):
            m["embedding.rule." + rule] = self.counts["embedding.rule." + rule] / n
        for mode in ("emb", "mirror", "seq", "large_rank"):
            name = "enumerator.enumerate_" + mode
            m["enumerator.enumerate_s." + mode] = _ratio(self.incl_ns[name], self.calls[name]) / 1e9
        for kind in ("text", "csv", "json", "reports"):
            m["cli.self_s." + kind] = _mean(self.main_self[kind]) / 1e9
        for fmt in ("text", "csv", "json"):
            m["cli.bytes_out." + fmt] = _mean(self.bytes_out[fmt])
        return m


def write_spans(path: str, groups: list[dict]) -> None:
    """One JSON line per group: its label and spans as [name, start_ns, end_ns, parent]."""
    with open(path, "w") as handle:
        for group in groups:
            handle.write(json.dumps(group) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def cli_pass(order, checker, outcome, layers=None, tracer=None) -> int:
    """Run each command of one pass in-process; returns the summed call time."""
    total = 0
    results, fold_errors = [], []
    for argv in order:
        code, stdout, elapsed = call_main(argv)
        total += elapsed
        results.append((argv, code, stdout))
        if layers is None:
            fold_errors.append([])
            continue
        recorded, counts, distinct = tracer.take()
        if layers.passes == 0:
            layers.kept.append({"command": command_key(argv), "spans": recorded})
        fold_errors.append(layers.fold(argv, recorded, counts, distinct, stdout))
    for found, extra in zip(checker.check_pass(results), fold_errors):
        outcome.record(found + extra)
    return total


def run_trace_cli(job: dict) -> dict:
    commands = CLI_COMMANDS[job["workload"]]
    checker = oracle.CliChecker(job["golden"])
    cli_pass(commands, checker, Outcome())  # warm-up; its checks repeat in every pass
    rng = random.Random(f"cli-order-{job['seed']}")
    outcome = Outcome()
    tracer = spans.Tracer()
    layers = CliLayers()
    untraced_ns = traced_ns = 0
    deadline = time.perf_counter() + job["seconds"]
    while layers.commands == 0 or time.perf_counter() < deadline:
        order = pass_order(commands, rng)
        untraced_ns += cli_pass(order, checker, outcome)
        spans.install_cli(tracer)
        try:
            traced_ns += cli_pass(order, checker, outcome, layers, tracer)
        finally:
            tracer.unpatch()
        layers.passes += 1
    metrics = layers.metrics()
    for population, primitive in lattice_metric_keys():  # not traced here: read 0
        name = "lattice_core." + primitive
        metrics[f"{name}_s.{population}"] = metrics[f"{name}_calls.{population}"] = 0.0
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    write_spans(job["spans_path"], layers.kept)
    return {"outcome": vars(outcome), "metrics": metrics, "commands": layers.commands}


JOBS = {"lattice": run_lattice, "trace-lattice": run_trace_lattice, "trace-cli": run_trace_cli}


if __name__ == "__main__":
    job = json.load(sys.stdin)
    json.dump(JOBS[job["mode"]](job), sys.stdout)
