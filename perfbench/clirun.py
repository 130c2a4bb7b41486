"""Fresh-process execution of the program, one child at a time.

Each child gets a pinned environment, its stdout is drained through a
pipe as a shell pipe would, and its CPU time and peak RSS come from the
``wait4`` rusage of that child alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import ROOT, SRC

SCRATCH = ROOT / ".bench_build" / "perfbench"
STDERR_PATH = SCRATCH / "child-stderr.txt"
# A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0

CLI_SETUP = (
    "import g2sum.cli as cli\n"
    "cli.load_nikulin(cli.default_data_dir() / cli.NIKULIN_FILENAME)\n"
    "cli.load_fano(cli.default_data_dir() / cli.FANO_FILENAME)\n"
)
LIBRARY_SETUP = "import g2sum\n"


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes


def child_env() -> dict[str, str]:
    """The whole environment of every child: nothing else leaks in."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def run_child(
    args: list[str], env: dict[str, str], stdin: bytes | None = None, budget_s: float = 0.0
) -> ChildRun:
    """Run ``python args...`` to completion; wall time covers spawn to reap.

    The child is killed if it runs longer than ``budget_s + CHILD_TIMEOUT_S``.
    """
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with STDERR_PATH.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
        )
        watchdog = threading.Timer(budget_s + CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        exit_code=proc.returncode,
        stdout=out,
    )


def run_cli(argv: tuple[str, ...], env: dict[str, str]) -> ChildRun:
    return run_child(["-m", "g2sum.cli", *argv], env)


def child_stderr_tail(lines: int = 5) -> str:
    text = STDERR_PATH.read_text(errors="replace") if STDERR_PATH.exists() else ""
    return "\n".join(text.splitlines()[-lines:])


def code_wall(code: str, env: dict[str, str]) -> float:
    """Wall time of ``python -c code`` in a fresh process; raises if it fails."""
    run = run_child(["-c", code], env)
    if run.exit_code != 0:
        raise RuntimeError(f"child {code!r} failed: {child_stderr_tail()}")
    return run.wall_s
