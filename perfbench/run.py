"""The g2sum benchmark: one run of one workload.

    python3 perfbench/run.py --workload records|reports|lattice \
        --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  ``records`` and ``reports``
run one ``python -m g2sum.cli`` child at a time, each a fresh process, on
the packaged catalogs.  ``lattice`` analyses the 75 catalog models and a
seeded battery of 500 Gram matrices in one library process.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics, taken in-process
with spans around each layer boundary.  Every operation's output is
checked outside the timed region.  The last line of stdout is the JSON
result; the exit code is 1 when a check failed and 2 when the program is
not there to measure.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

import clirun
import oracle
import reference
import summary
from inputs import (
    CLI_COMMANDS,
    MIN_PASSES,
    ROOT,
    SRC,
    WORKLOADS,
    gram_battery,
    pass_order,
    read_models,
)

HERE = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 9
STARTUP_REPEATS = 7


def setup_time(code: str, env: dict) -> tuple[float, float]:
    """Normalised and raw median wall time of ``python -c code`` in fresh children."""
    refs = [reference.child_s(env)]
    walls = []
    for _ in range(SETUP_REPEATS):
        walls.append(clirun.code_wall(code, env))
        refs.append(reference.child_s(env))
    scaled = [w * f for w, f in zip(walls, reference.factors(refs, reference.CHILD_NOMINAL_S))]
    return statistics.median(scaled), statistics.median(walls)


def cli_workload(workload: str, seed: int, seconds: float) -> dict:
    env = clirun.child_env()
    checker = oracle.CliChecker(oracle.load_golden())
    commands = CLI_COMMANDS[workload]
    for argv in commands:  # untimed warm-up: bytecode caches, page cache
        clirun.run_cli(argv, env)
    setup_s, raw_setup_s = setup_time(clirun.CLI_SETUP, env)

    rng = random.Random(f"cli-order-{seed}")
    rows_by_digest: dict[str, int] = {}
    walls, raw_walls, cpus, rows, errors = [], [], [], [], []
    per_command: dict[str, list[float]] = {}
    rss_kb: dict[str, list[int]] = {}
    failed = passes = 0
    refs = [reference.child_s(env)]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or passes < MIN_PASSES[workload]:
        runs = []
        for argv in pass_order(commands, rng):
            run = clirun.run_cli(argv, env)
            refs.append(reference.child_s(env))
            [factor] = reference.factors(refs[-2:], reference.CHILD_NOMINAL_S)
            runs.append((argv, run, factor))
        # Everything below is outside each child's measured wall time.
        checked = checker.check_pass([(argv, run.exit_code, run.stdout) for argv, run, _ in runs])
        for (argv, run, factor), found in zip(runs, checked):
            digest = oracle.sha256(run.stdout)
            if digest not in rows_by_digest:
                try:
                    rows_by_digest[digest] = len(oracle.parse_rows(argv, run.stdout))
                except (ValueError, KeyError, IndexError):
                    rows_by_digest[digest] = 0
            walls.append(run.wall_s * factor)
            raw_walls.append(run.wall_s)
            cpus.append(run.cpu_s)
            rows.append(rows_by_digest[digest])
            per_command.setdefault(" ".join(argv), []).append(run.wall_s * factor)
            rss_kb.setdefault(" ".join(argv), []).append(run.maxrss_kb)
            if found:
                failed += 1
                errors.extend(found)
        passes += 1

    guaranteed = MIN_PASSES[workload] * len(commands)
    percent, tail_value, beyond = summary.tail(walls, guaranteed)
    return {
        "metrics": {
            "setup_s": setup_s,
            "cmd_p50_s": statistics.median(walls),
            "cmd_tail_s": tail_value,
            "records_per_s": sum(rows) / sum(walls),
            # The heaviest command's typical peak: a maximum over all children
            # would follow the one child that allocation jitter pushed highest.
            "peak_rss_mb": max(statistics.median(v) for v in rss_kb.values()) / 1024,
        },
        "attempted": len(walls),
        "failed": failed,
        "errors": errors[:10],
        "detail": {
            "tail_percentile": percent,
            "tail_beyond": beyond,
            "samples": len(walls),
            "passes": passes,
            "raw_setup_s": raw_setup_s,
            "raw_cmd_p50_s": statistics.median(raw_walls),
            "raw_cmd_tail_s": summary.tail(raw_walls, guaranteed)[1],
            "raw_records_per_s": sum(rows) / sum(raw_walls),
            "raw_cpu_p50_s": statistics.median(cpus),
            "reference_p50_s": statistics.median(refs),
            "command_p50_s": {k: statistics.median(v) for k, v in sorted(per_command.items())},
        },
    }


def lattice_job(mode: str, seed: int, seconds: float) -> dict:
    return {
        "mode": mode,
        "seed": seed,
        "seconds": seconds,
        "models": read_models(),
        "grams": gram_battery(seed),
    }


def run_worker(job: dict, env: dict) -> dict:
    run = clirun.run_child(
        [str(HERE / "worker.py")], env, stdin=json.dumps(job).encode(), budget_s=job["seconds"]
    )
    if run.exit_code != 0:
        raise RuntimeError(f"worker exited {run.exit_code}: {clirun.child_stderr_tail()}")
    return json.loads(run.stdout)


def lattice_workload(seed: int, seconds: float) -> dict:
    env = clirun.child_env()
    clirun.code_wall(clirun.CLI_SETUP, env)  # untimed warm-up: bytecode caches
    setup_s, raw_setup_s = setup_time(clirun.LIBRARY_SETUP, env)
    job = lattice_job("lattice", seed, seconds)
    result = run_worker(job, env)
    factors = reference.factors(result["speed_s"], reference.ELIMINATION_NOMINAL_S)
    times, raw = {}, {}
    for population, values in result["times_ns"].items():
        size = len(values) // len(factors)
        raw[population] = [t / 1e9 for t in values]
        times[population] = [t * factors[i // size] for i, t in enumerate(raw[population])]
    everything = times["models"] + times["grams"]
    raw_everything = raw["models"] + raw["grams"]
    guaranteed = MIN_PASSES["lattice"] * (len(job["models"]) + len(job["grams"]))
    percent, tail_value, beyond = summary.tail(everything, guaranteed)
    outcome = result["outcome"]
    rate = {p: len(t) / sum(t) for p, t in times.items()}
    return {
        "metrics": {
            "setup_s": setup_s,
            "cmd_p50_s": statistics.median(everything),
            "cmd_tail_s": tail_value,
            "records_per_s": len(everything) / sum(everything),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        },
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "errors": outcome["errors"],
        "detail": {
            "models_per_s": rate["models"],
            "grams_per_s": rate["grams"],
            "tail_percentile": percent,
            "tail_beyond": beyond,
            "samples": len(everything),
            "passes": len(factors),
            "raw_setup_s": raw_setup_s,
            "raw_cmd_p50_s": statistics.median(raw_everything),
            "raw_cmd_tail_s": summary.tail(raw_everything, guaranteed)[1],
            "raw_records_per_s": len(raw_everything) / sum(raw_everything),
            "reference_p50_s": statistics.median(result["speed_s"]),
        },
    }


def traced_workload(workload: str, seed: int, seconds: float) -> dict:
    env = clirun.child_env()
    clirun.code_wall(clirun.CLI_SETUP, env)  # untimed warm-up: bytecode caches
    code = "import g2sum\n" if workload == "lattice" else "import g2sum.cli\n"
    interp = statistics.median(clirun.code_wall("pass", env) for _ in range(STARTUP_REPEATS))
    imported = statistics.median(clirun.code_wall(code, env) for _ in range(STARTUP_REPEATS))
    if workload == "lattice":
        job = lattice_job("trace-lattice", seed, seconds)
    else:
        job = {
            "mode": "trace-cli",
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "golden": oracle.load_golden(),
        }
    job["spans_path"] = str(clirun.SCRATCH / f"spans-{workload}-{seed}.jsonl")
    result = run_worker(job, env)
    metrics = {"startup.interp_s": interp, "startup.import_s": imported - interp}
    metrics.update(result["metrics"])
    outcome = result["outcome"]
    return {
        "metrics": metrics,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "errors": outcome["errors"],
        "detail": {k: v for k, v in result.items() if k not in ("metrics", "outcome")},
    }


def report(result: dict, declared: list[dict]) -> dict:
    """The result line: exactly the declared metrics, each with its unit."""
    values = result["metrics"]
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - names)}, missing {sorted(names - set(values))}"
        )
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "g2sum" / "__init__.py").is_file() or not oracle.GOLDEN_PATH.is_file():
        print(f"benchmark: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())

    try:
        if args.trace:
            result = traced_workload(args.workload, args.seed, args.seconds)
        elif args.workload == "lattice":
            result = lattice_workload(args.seed, args.seconds)
        else:
            result = cli_workload(args.workload, args.seed, args.seconds)
        line = report(result, spec["per_layer" if args.trace else "end_to_end"])
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, metric in line["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':44s} {line['failed'] / line['attempted']:.6g} ({line['failed']}/{line['attempted']})")
    for name, value in result["detail"].items():
        if not isinstance(value, (dict, list)):
            print(f"  {name:44s} {value:.6g}" if isinstance(value, float) else f"  {name:44s} {value}")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
