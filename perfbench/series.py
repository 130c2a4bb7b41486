"""Repeated runs of every workload: baselines and the steadiness check.

    python3 perfbench/series.py --runs 10 --seed 1 CHECKOUT:OUT.json [CHECKOUT:OUT.json]

For each run index ``i`` and each workload, runs ``CHECKOUT/perfbench/run.py``
in a fresh process with seed ``seed + i`` for the ``run_seconds`` of
BENCHMARK.json, one process at a time; then one traced run per workload.  With two checkouts (a parent and a change) the
runs alternate between them and swap which side goes first at every
index, which is what ``compare.py`` pairs up.  Prints, per workload and
metric, the median, the quartiles and their distance as a share of the
median next to the metric's bound, plus ``fail_ratio``.  Exits 1 if any
run failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import summary
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
# Figures a run prints besides the declared end-to-end metrics.
DETAIL_RATES = ("models_per_s", "grams_per_s")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def one_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = next((json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")), {})
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "detail": detail,
        "errors": proc.stderr.strip().splitlines()[:5],
    }


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name] if name in r["metrics"] else r["detail"][name] for r in runs]


def print_summary(label: str, data: dict, spec: dict) -> bool:
    """Print one checkout's figures; True when every run passed its checks."""
    ok = True
    print(f"== {label}: {data['runs']} runs of {data['seconds']:g} s, seeds from {data['seed']}")
    for workload, entry in data["workloads"].items():
        runs = entry["runs"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0 and all(r["correct"] for r in runs)
        print(f"-- {workload}  fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
        declared = [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]]
        extra = [(name, "1/s", None) for name in DETAIL_RATES if name in runs[0]["detail"]]
        for name, unit, bound in declared + extra:
            q1, med, q3 = summary.quartiles(metric_values(runs, name))
            spread = (q3 - q1) / med
            note = "" if bound is None else f"bound {bound:<5g} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"   {name:16s} {med:<12.6g} {unit:6s} q1 {q1:<10.5g} q3 {q3:<10.5g} spread {spread:6.3f}  {note}")
        detail = runs[0]["detail"]
        if "tail_percentile" in detail:
            counts = sorted({(r["detail"]["tail_percentile"], r["detail"]["samples"]) for r in runs})
            print(f"   cmd_tail_s percentile and sample count per run: {counts}")
        trace = entry.get("trace")
        if trace:
            ok = ok and trace["correct"]
            print(f"   traced run: trace.overhead_ratio {trace['metrics']['trace.overhead_ratio']:.3f}"
                  f", fail_ratio {trace['failed'] / trace['attempted']:.4g}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("targets", nargs="+", metavar="CHECKOUT:OUT.json")
    args = parser.parse_args(argv)
    if len(args.targets) > 2:
        parser.error("at most two checkouts")
    targets = []
    for target in args.targets:
        checkout, _, out = target.partition(":")
        if not out:
            parser.error(f"{target!r} is not CHECKOUT:OUT.json")
        targets.append((Path(checkout), Path(out)))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    results = [
        {"machine": machine(), "checkout": str(c), "seed": args.seed, "seconds": seconds,
         "runs": args.runs, "workloads": {w: {"runs": []} for w in WORKLOADS}}
        for c, _ in targets
    ]
    for i in range(args.runs):
        order = list(range(len(targets)))
        if i % 2:
            order.reverse()
        for workload in WORKLOADS:
            for t in order:
                run = one_run(targets[t][0], workload, args.seed + i, seconds, 0)
                results[t]["workloads"][workload]["runs"].append(run)
                print(f"run {i} {workload} {targets[t][0]}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in run["metrics"].items()), flush=True)
    for workload in WORKLOADS:
        for t in range(len(targets)):
            results[t]["workloads"][workload]["trace"] = one_run(targets[t][0], workload, args.seed, seconds, 1)

    ok = True
    for (checkout, out), data in zip(targets, results):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        ok = print_summary(str(checkout), data, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
