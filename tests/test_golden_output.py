"""Every benchmarked CLI command prints exactly the recorded bytes.

``perfbench/golden.json`` holds the exit code and the SHA-256 of stdout
for each command the benchmark runs.  Here each runs in-process through
``g2sum.cli.main``; the file is only read.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from g2sum.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
COMMANDS = json.loads(GOLDEN.read_text())["commands"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stdout_matches_golden(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(command.split())
    expected = COMMANDS[command]
    assert code == expected["exit"]
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == expected["sha256"]
